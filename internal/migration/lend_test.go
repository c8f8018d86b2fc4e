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
	cl := NewConn(sk)
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
	takeBehavior(1)
	takeBehavior(2)
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
	b.OnMsg = func(_ MsgType, payload []byte) {
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
