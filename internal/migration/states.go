package migration

import "fmt"

// protocolError is a frame the receiving state machine has no place
// for: a type byte that is unknown or retired, a duplicate of a frame
// that may arrive once, or a known frame outside its state. Each end
// checks every frame against its (state × type) table below before it
// looks at the payload; the transport is ordered and reliable, so a
// violation means a broken or hostile peer, and the migration aborts.
//
// One honest peer gets here: TCPSocket.Close sends its FIN ahead of
// bytes still unsent (ROADMAP 1(c)(i)), so under loss the tail of a
// source's stream can land after the EOF that tore the migration down.
// The reply's bytes are in the trace hashes, so a tail opening with a
// CHUNK still reads "migration: CHUNK before MIGRATE_REQ", and one
// opening with a CAPTURE_REQ is still acknowledged (ibAccepts).
type protocolError struct {
	t     MsgType
	state string // a phrase: "before MIGRATE_REQ", "during the transfer"
}

func (e *protocolError) Error() string {
	return fmt.Sprintf("migration: %s %s", e.t, e.state)
}

// accepts reports whether the mask has a place for type t.
func accepts(mask uint32, t MsgType) bool { return t < 32 && mask>>t&1 != 0 }

// ibState is where the destination stands in the protocol, as far as
// frames from the source are concerned. It is a stored field
// (inbound.st): every transition is an assignment at the place the
// protocol moves on.
type ibState uint8

const (
	ibIdle      ibState = iota // no migration open: before MIGRATE_REQ, or after the source's ABORT
	ibTransfer                 // request acked: deltas, capture requests, chunk streams
	ibRestoring                // final image complete: the restore runs whatever the source does
	ibPulling                  // the row pulls: resumed with holes, page content arrives
	ibClosed                   // this side hung up: abort, or an expired lease
)

var ibStateNames = [...]string{"before MIGRATE_REQ", "during the transfer", "during the restore", "during the pull phase", "after hanging up"}

// ibAccepts[state] is the set of frame types the destination has a
// place for in that state, as a bitmask over the type byte. ABORT is
// legal wherever the connection is open; CAPTURE_REQ in idle is
// acknowledged and installs nothing (see protocolError). ibPulling is
// reached only under a strategy row that pulls.
var ibAccepts = [...]uint32{
	ibIdle:      1<<MsgMigrateReq | 1<<MsgCaptureReq | 1<<MsgAbort,
	ibTransfer:  1<<MsgSockDelta | 1<<MsgCaptureReq | 1<<MsgChunk | 1<<MsgChunkEnd | 1<<MsgAbort,
	ibRestoring: 1 << MsgAbort,
	ibPulling:   1<<MsgPageResp | 1<<MsgAbort,
	ibClosed:    0,
}

// obState is where the source stands, stored in outbound.st. The order
// is the order a migration moves through them, so "at or past the
// commit fence" is a comparison; the last two are the terminal states
// (outbound.over).
type obState uint8

const (
	obConnecting obState = iota // dialing (and redialing): MIGRATE_REQ not sent yet
	obAwaitAck                  // MIGRATE_REQ sent
	obTransfer                  // acked: rounds, capture handshakes, the final image
	obCommitted                 // final image fully queued; the destination restores
	obServing                   // handover: the destination runs the process, the pull server runs here
	obDone                      // ended: the process lives on the destination
	obAborted                   // ended: rolled back, or reaped past the handover
)

// The terminal states have no name and no row: a frame behind the end is
// dropped unread (the connection is closed).
var obStateNames = [...]string{"before MIGRATE_REQ", "before MIGRATE_ACK", "during the transfer", "after the final image", "after the handover"}

// obAccepts[state] is the set of frame types the source has a place for
// in that state, as a bitmask over the type byte. The obCommitted row
// gains the strategy's own column (Strategy.committed): a pre-copy
// source has no place for RESUMED, a source whose destination is about
// to pull has none for RESTORE_DONE — dismantling on it would leave the
// destination running with every page a hole and nobody to pull from.
var obAccepts = [...]uint32{
	obConnecting: 1 << MsgAbort,
	obAwaitAck:   1<<MsgMigrateAck | 1<<MsgAbort,
	obTransfer:   1<<MsgCaptureAck | 1<<MsgAbort,
	obCommitted:  1 << MsgAbort,
	obServing:    1<<MsgPageReq | 1<<MsgPullsDone | 1<<MsgAbort,
}

// obAccepts is the mask of one state under this row.
func (s *Strategy) obAccepts(st obState) uint32 {
	if st == obCommitted {
		return obAccepts[st] | 1<<s.committed
	}
	return obAccepts[st]
}
