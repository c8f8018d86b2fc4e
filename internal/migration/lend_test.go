package migration

import (
	"bytes"
	"testing"
	"time"

	"dvemig/internal/netstack"
	"dvemig/internal/obs"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
)

// frameBytes is one migd frame on the wire.
func frameBytes(t MsgType, payload []byte) []byte {
	b := []byte{byte(t), byte(len(payload) >> 24), byte(len(payload) >> 16), byte(len(payload) >> 8), byte(len(payload))}
	return append(b, payload...)
}

// TestStandbyCopiesLentImage: the standby stores checkpoint images past
// the handler that received them, so it must own its bytes. Two images
// on one guardian connection — the second lands in the receive buffer
// the first was lent from.
func TestStandbyCopiesLentImage(t *testing.T) {
	c := proc.NewCluster(simtime.NewScheduler(), 2)
	sb, err := NewStandby(c.Nodes[1])
	if err != nil {
		t.Fatal(err)
	}
	sk := netstack.NewTCPSocket(c.Nodes[0].Stack)
	cl := newConn(sk, nil, nil)
	if err := sk.Connect(c.Nodes[1].LocalIP, StandbyPort); err != nil {
		t.Fatal(err)
	}
	c.Sched.RunFor(time.Second)
	first := bytes.Repeat([]byte{0xA1}, 3000)
	second := bytes.Repeat([]byte{0xB2}, 5000)
	if err := cl.Send(msgCkptImage, encodeCkptImage("svc-a", 1, 1, 1, obs.TraceContext{}, first)); err != nil {
		t.Fatal(err)
	}
	c.Sched.RunFor(time.Second)
	if err := cl.Send(msgCkptImage, encodeCkptImage("svc-b", 2, 1, 1, obs.TraceContext{}, second)); err != nil {
		t.Fatal(err)
	}
	c.Sched.RunFor(time.Second)
	if sb.NumImages() != 2 {
		t.Fatalf("standby holds %d images, want 2", sb.NumImages())
	}
	if got := sb.images["svc-a"].data; !bytes.Equal(got, first) {
		t.Fatalf("first image corrupted after the second arrived: % x ...", got[:8])
	}
	if got := sb.images["svc-b"].data; !bytes.Equal(got, second) {
		t.Fatalf("second image corrupted: % x ...", got[:8])
	}
}

// TestConnReturnsBufferOnClose: Close hands the drained receive buffer
// back, the next connection draws that very buffer, and a Close from
// inside a handler waits for the dispatch loop to finish with it.
func TestConnReturnsBufferOnClose(t *testing.T) {
	bufs := &bufList{}
	a := idleConn(bufs)
	a.feed(frameBytes(MsgMigrateAck, []byte("hello")))
	if a.buf == nil || len(bufs.free) != 0 {
		t.Fatal("an open connection gave its buffer away")
	}
	held := &a.buf[:1][0]
	a.Close()
	if a.buf != nil || len(bufs.free) != 1 {
		t.Fatalf("after Close: conn holds %v, free list has %d", a.buf != nil, len(bufs.free))
	}

	b := idleConn(bufs)
	var seen []string
	b.funcs().onMsg = func(_ MsgType, payload []byte) {
		if len(seen) == 0 {
			b.Close()
		}
		if len(bufs.free) != 0 {
			t.Error("buffer returned while its frames were still being dispatched")
		}
		seen = append(seen, string(payload))
	}
	b.feed(append(frameBytes(MsgAbort, []byte("one")), frameBytes(MsgAbort, []byte("two"))...))
	if len(seen) != 2 || seen[0] != "one" || seen[1] != "two" {
		t.Fatalf("dispatched %q, want [one two]", seen)
	}
	if b.buf != nil || len(bufs.free) != 1 {
		t.Fatal("buffer not returned once the dispatch loop ended")
	}
	if got := bufs.free[0]; &got[:1][0] != held {
		t.Fatal("second connection did not reuse the first one's buffer")
	}
}

// TestConnReturnsBufferOnPeerEOF: a side that never calls Close — the
// destination of a successful migration — gives its buffer back when
// the peer's FIN arrives on a drained buffer.
func TestConnReturnsBufferOnPeerEOF(t *testing.T) {
	e := newEnv(t, 3, 2, DefaultConfig())
	m := e.migrate(t, 1)
	if m.Aborted {
		t.Fatalf("migration aborted: %s", m.AbortReason)
	}
	e.c.Sched.RunFor(5 * time.Second) // the source's FIN crosses
	for i, name := range []string{"source", "destination"} {
		if n := len(e.migrators[i].recvBufs.free); n != 1 {
			t.Errorf("%s migrator has %d recycled receive buffers after one migration, want 1", name, n)
		}
	}
	// A second migration back reuses them instead of growing the lists.
	e.p = findProcess(e.c.Nodes[1], "zone_serv1")
	done := false
	e.migrators[1].Migrate(e.p, e.c.Nodes[0].LocalIP, func(_ *Metrics, err error) {
		if err != nil {
			t.Errorf("return migration: %v", err)
		}
		done = true
	})
	e.c.Sched.RunFor(15 * time.Second)
	if !done {
		t.Fatal("return migration never completed")
	}
	for i, name := range []string{"first source", "first destination"} {
		if n := len(e.migrators[i].recvBufs.free); n != 1 {
			t.Errorf("%s migrator has %d recycled receive buffers after the round trip, want 1", name, n)
		}
	}
}

// TestConnHangsUpOnOverBoundHeader: a five-byte header declaring a frame
// above maxFrameBytes is not waited for. The frame ahead of it is
// dispatched, the connection closes and tells its owner it hung up
// (once), nothing the peer sends afterwards is buffered or parsed — the
// frame boundaries are gone — and the receive buffer goes back to the
// free list instead of growing toward the declared size.
func TestConnHangsUpOnOverBoundHeader(t *testing.T) {
	bufs := &bufList{}
	c := idleConn(bufs)
	var seen []MsgType
	c.funcs().onMsg = func(mt MsgType, _ []byte) { seen = append(seen, mt) }
	hangups := 0
	c.funcs().onClose = func() { hangups++ }

	c.feed(frameBytes(MsgMigrateAck, nil))
	c.feed([]byte{byte(MsgChunk), 0xFF, 0xFF, 0xFF, 0xFF}) // 4 GiB - 1
	c.feed(make([]byte, 1<<20))
	c.feed(frameBytes(MsgAbort, nil))
	if !c.closed || hangups != 1 {
		t.Fatalf("closed=%v, owner told of %d hang-ups", c.closed, hangups)
	}
	if c.buf != nil || len(bufs.free) != 1 || cap(bufs.free[0]) >= maxFrameBytes {
		t.Fatalf("receive buffer not handed back small: conn holds %v, free list %d", c.buf != nil, len(bufs.free))
	}
	if len(seen) != 1 || seen[0] != MsgMigrateAck {
		t.Fatalf("dispatched %v, want only the frame ahead of the bad header", seen)
	}
	// Exactly at the bound is a legal header — the parser waits for the
	// frame — and the sending half refuses what the receiving half would.
	d := idleConn(&bufList{})
	d.feed([]byte{byte(MsgChunk), byte(maxFrameBytes >> 24), 0, 0, 0})
	if d.closed || len(d.buf) != 5 {
		t.Fatalf("a header declaring exactly maxFrameBytes: closed=%v, %d bytes held", d.closed, len(d.buf))
	}
	if err := d.Send2(MsgChunk, make([]byte, 1), make([]byte, maxFrameBytes)); err == nil {
		t.Fatal("Send2 accepted a frame above maxFrameBytes")
	}
}
