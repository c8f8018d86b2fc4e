package migration

import (
	"errors"
	"testing"
	"time"

	"dvemig/internal/ckpt"
	"dvemig/internal/netsim"
)

// TestProtocolStateTable is the (state × type) table of both migd state
// machines, written out per strategy row: every type byte a state does
// not list here — unknown, retired (3, 7, 10), or simply out of place —
// is a protocol violation there. The destination's table is the same
// under every row; the source's differs in the committed column.
func TestProtocolStateTable(t *testing.T) {
	check := func(side string, names []string, mask func(st int) uint32, want [][]MsgType) {
		t.Helper()
		if len(names) != len(want) {
			t.Fatalf("%s: %d names, %d rows", side, len(names), len(want))
		}
		for st, row := range want {
			for b := 0; b < 256; b++ {
				listed := false
				for _, mt := range row {
					listed = listed || mt == MsgType(b)
				}
				if got := accepts(mask(st), MsgType(b)); got != listed {
					t.Errorf("%s %s: accepts(%s) = %v, want %v", side, names[st], MsgType(b), got, listed)
				}
			}
		}
	}
	if len(ibAccepts) != len(ibStateNames) || len(obAccepts) != len(obStateNames) || len(obStateNames) != int(obDone) {
		t.Fatalf("tables out of step: %d/%d inbound, %d/%d outbound masks/names for %d live outbound states",
			len(ibAccepts), len(ibStateNames), len(obAccepts), len(obStateNames), obDone)
	}
	check("inbound", ibStateNames[:], func(st int) uint32 { return ibAccepts[st] }, [][]MsgType{
		ibIdle:      {MsgMigrateReq, MsgCaptureReq, MsgAbort}, // CAPTURE_REQ: acked, installs nothing
		ibTransfer:  {MsgSockDelta, MsgCaptureReq, MsgChunk, MsgChunkEnd, MsgAbort},
		ibRestoring: {MsgAbort},
		ibPulling:   {MsgPageResp, MsgAbort},
		ibClosed:    {}, // dropped without an answer: this side already hung up
	})
	committed := map[string][]MsgType{
		"precopy":  {MsgRestoreDone, MsgAbort}, // RESUMED has no place: nothing is left to pull
		"postcopy": {MsgResumed, MsgAbort},     // RESTORE_DONE has no place: the destination runs with holes
		"hybrid":   {MsgResumed, MsgAbort},     // likewise
	}
	for i := range strategies {
		row := &strategies[i]
		want, ok := committed[row.name]
		if !ok {
			t.Fatalf("strategy row %q is not restated in this test", row.name)
		}
		check("outbound/"+row.name, obStateNames[:], func(st int) uint32 { return row.obAccepts(obState(st)) }, [][]MsgType{
			obConnecting: {MsgAbort},
			obAwaitAck:   {MsgMigrateAck, MsgAbort},
			obTransfer:   {MsgCaptureAck, MsgAbort},
			obCommitted:  want,
			obServing:    {MsgPageReq, MsgPullsDone, MsgAbort},
		})
		// The columns that follow from one another do: a row whose final
		// image is a page directory is committed on RESUMED and pulls.
		if post := row.final == chunkKindPostImage; post != row.pulls || post != (row.committed == MsgResumed) {
			t.Errorf("row %q: final kind %d, pulls %v, committed on %s disagree", row.name, row.final, row.pulls, row.committed)
		}
	}
}

// TestInboundAbortsOnFrameWithoutAPlace drives the real daemon into the
// transfer state and sends it, once a second, a frame its state machine
// has no place for. The first aborts the migration with the typed cause
// on the wire; none renews anything, so the state is gone long before
// InboundLease (3 s here), and a valid image sent afterwards restores
// nothing.
func TestInboundAbortsOnFrameWithoutAPlace(t *testing.T) {
	req := migrateReq{PID: 904, Mode: modePrecopy, Name: "chunk_target"}.encode()
	for _, tc := range []struct {
		name    string
		mt      MsgType
		payload []byte
	}{
		{"unknown", MsgType(99), []byte("noise")},
		{"retired-mem-delta", MsgType(3), (&ckpt.MemDelta{Round: 1}).Encode()},
		{"retired-freeze", MsgType(7), validFreezePayload(904)},
		{"retired-post-image", MsgType(10), nil},
		{"duplicate-migrate-req", MsgMigrateReq, req},
		{"out-of-state-page-resp", MsgPageResp, pageResp{}.encodeInto(nil)},
		{"reply-type-from-the-source", MsgMigrateAck, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs, c := chunkEnv(t)
			fs.handshake(t, 904)
			for i := 0; i < 8; i++ {
				fs.conn.Send(tc.mt, tc.payload)
				c.Sched.RunFor(time.Second)
				if want := "migration: " + tc.mt.String() + " during the transfer"; len(fs.aborts) != 1 || fs.aborts[0] != want {
					t.Fatalf("after %d frames: aborts = %q, want one %q", i+1, fs.aborts, want)
				}
			}
			if fs.dst.LeaseExpired != 0 {
				t.Fatalf("LeaseExpired = %d: the state was reaped by the lease, not by the violation", fs.dst.LeaseExpired)
			}
			fs.sendChunks(chunkKindFreeze, 1, validFreezePayload(904), 512, true)
			c.Sched.RunFor(2 * time.Second)
			if fs.restored || findProcess(c.Nodes[1], "chunk_target") != nil {
				t.Fatal("a process was restored after the protocol violation")
			}
		})
	}
}

// TestLateTailReadsAsItAlwaysDid pins the two replies an honest source
// can draw from an idle destination (see protocolError): a CHUNK is
// refused in the words, and so the wire bytes, it always was; a
// CAPTURE_REQ is acknowledged and installs no filter.
func TestLateTailReadsAsItAlwaysDid(t *testing.T) {
	fs, c := chunkEnv(t)
	fs.conn.Send(MsgCaptureReq, encodeCaptureReq([]netsim.FlowKey{{LocalPort: 7777, Proto: netsim.ProtoTCP}}))
	c.Sched.RunFor(200 * time.Millisecond)
	if len(fs.aborts) != 0 || fs.closed || fs.dst.Capture.ActiveFilters() != 0 {
		t.Fatalf("CAPTURE_REQ before MIGRATE_REQ: aborts %q, closed %v, %d filters installed",
			fs.aborts, fs.closed, fs.dst.Capture.ActiveFilters())
	}
	fs.conn.Send(MsgChunk, chunkFrame{Kind: chunkKindMemDelta, Stream: 1}.encode())
	c.Sched.RunFor(200 * time.Millisecond)
	if len(fs.aborts) != 1 || fs.aborts[0] != "migration: CHUNK before MIGRATE_REQ" {
		t.Fatalf("aborts = %q, want the historical text", fs.aborts)
	}
}

// TestDuplicateAckAborts: MIGRATE_ACK may arrive once. A second one used
// to start the rounds again — a second round loop on one outbound —
// and is now a protocol violation that fails the migration with the
// typed cause.
func TestDuplicateAckAborts(t *testing.T) {
	fd, _, wait := pullEnv(t, 0)
	fd.conn.Send(MsgMigrateAck, nil)
	m, err := wait()
	var pe *protocolError
	if !errors.As(err, &pe) || pe.t != MsgMigrateAck || pe.state != obStateNames[obServing] {
		t.Fatalf("migration ended with %v, want the violation MIGRATE_ACK after the handover", err)
	}
	if m == nil || !m.Aborted {
		t.Fatalf("metrics not flagged aborted: %+v", m)
	}
}
