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
// bytes still unsent (ROADMAP 4(h)), so under loss the tail of a
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
// frames from the source are concerned.
type ibState uint8

const (
	ibIdle      ibState = iota // no migration open: before MIGRATE_REQ, or after the source's ABORT
	ibTransfer                 // request acked: deltas, capture requests, chunk streams
	ibRestoring                // final image complete: the restore runs whatever the source does
	ibPulling                  // post-copy: resumed, page content arrives
	ibClosed                   // this side hung up: abort, or an expired lease
)

var ibStateNames = [...]string{"before MIGRATE_REQ", "during the transfer", "during the restore", "during the pull phase", "after hanging up"}

// ibAccepts[state] is the set of frame types the destination has a
// place for in that state, as a bitmask over the type byte. ABORT is
// legal wherever the connection is open; CAPTURE_REQ in idle is
// acknowledged and installs nothing (see protocolError).
var ibAccepts = [...]uint32{
	ibIdle:      1<<MsgMigrateReq | 1<<MsgCaptureReq | 1<<MsgAbort,
	ibTransfer:  1<<MsgSockDelta | 1<<MsgCaptureReq | 1<<MsgChunk | 1<<MsgChunkEnd | 1<<MsgAbort,
	ibRestoring: 1 << MsgAbort,
	ibPulling:   1<<MsgPageResp | 1<<MsgAbort,
	ibClosed:    0,
}

func (ib *inbound) state() ibState {
	switch {
	case ib.conn.closed:
		return ibClosed
	case !ib.active:
		return ibIdle
	case !ib.restoring:
		return ibTransfer
	case ib.puller == nil:
		return ibRestoring
	}
	return ibPulling
}

// obState is where the source stands in the protocol, as far as frames
// from the destination are concerned.
type obState uint8

const (
	obAwaitAck  obState = iota // MIGRATE_REQ sent
	obTransfer                 // acked: rounds, capture handshakes, the final image
	obCommitted                // final image fully queued; the destination restores
	obServing                  // post-copy handover: the pull server runs
)

var obStateNames = [...]string{"before MIGRATE_ACK", "during the transfer", "after the final image", "after the handover"}

// obAccepts[state] is the set of frame types the source has a place for
// in that state, as a bitmask over the type byte.
var obAccepts = [...]uint32{
	obAwaitAck:  1<<MsgMigrateAck | 1<<MsgAbort,
	obTransfer:  1<<MsgCaptureAck | 1<<MsgAbort,
	obCommitted: 1<<MsgRestoreDone | 1<<MsgResumed | 1<<MsgAbort,
	obServing:   1<<MsgPageReq | 1<<MsgPullsDone | 1<<MsgAbort,
}

func (ob *outbound) state() obState {
	switch {
	case !ob.acked:
		return obAwaitAck
	case ob.handedOver:
		return obServing
	case ob.commitSent:
		return obCommitted
	}
	return obTransfer
}
