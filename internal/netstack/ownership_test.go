package netstack

import (
	"bytes"
	"testing"
	"time"

	"dvemig/internal/netsim"
	"dvemig/internal/simtime"
)

// TestBroadcastCloneIndependence pins the two halves of the ownership
// rule on the broadcast path: a slot that rewrites its node's copy of a
// client segment (and fixes the checksum) changes nothing its sibling
// nodes or the sender's write queue can see, while all of them read the
// payload from one shared buffer.
func TestBroadcastCloneIndependence(t *testing.T) {
	sched := simtime.NewScheduler()
	cluster := netsim.MakeAddr(203, 0, 113, 10)
	r := netsim.NewBroadcastRouter(sched, cluster)
	var stacks []*Stack
	for i := 0; i < 3; i++ {
		st := NewStack(sched, "srv", uint32(1000*i))
		nic := r.AttachServer("pub", netsim.GigabitEthernet)
		st.AttachNIC(nic, cluster)
		st.AddRoute(0, 0, nic, cluster)
		stacks = append(stacks, st)
	}
	lst := NewTCPSocket(stacks[1])
	if err := lst.Listen(cluster, 6000); err != nil {
		t.Fatal(err)
	}
	cliStack := NewStack(sched, "cli", 7)
	cnic := r.AttachExternal("cli", netsim.MakeAddr(198, 51, 100, 1), netsim.GigabitEthernet)
	cliStack.AttachNIC(cnic, cnic.Addr)
	cliStack.AddRoute(0, 0, cnic, cnic.Addr)
	cli := NewTCPSocket(cliStack)
	if err := cli.Connect(cluster, 6000); err != nil {
		t.Fatal(err)
	}
	sched.RunFor(time.Second)
	if cli.State != TCPEstablished {
		t.Fatalf("client state = %v", cli.State)
	}

	// Every node steals its copy of the data segment so the test can look
	// at all three; node 0 plays the translation filter first.
	rewritten := netsim.MakeAddr(192, 168, 1, 2)
	got := make([]*netsim.Packet, len(stacks))
	for i, st := range stacks {
		st.SetCapturer(captureFunc(func(p *netsim.Packet) bool {
			if len(p.Payload) == 0 || got[i] != nil {
				return false
			}
			if i == 0 {
				p.DstIP, p.DstPort = rewritten, 7000
				p.FixChecksum()
			}
			got[i] = p
			return true
		}))
	}
	msg := bytes.Repeat([]byte("zone-update "), 20)
	if err := cli.Send(msg); err != nil {
		t.Fatal(err)
	}
	sched.RunFor(10 * time.Millisecond)

	if len(cli.WriteQueue()) != 1 {
		t.Fatalf("write queue holds %d segments", len(cli.WriteQueue()))
	}
	orig := cli.WriteQueue()[0]
	if orig.DstIP != cluster || orig.DstPort != 6000 || !orig.ChecksumOK() || !bytes.Equal(orig.Payload, msg) {
		t.Fatal("the sender's write-queue original changed")
	}
	for i, p := range got {
		if p == nil {
			t.Fatalf("node %d saw no data segment", i)
		}
		if !p.ChecksumOK() {
			t.Fatalf("node %d: checksum broken", i)
		}
		if &p.Payload[0] != &orig.Payload[0] {
			t.Fatalf("node %d: payload copied, not shared", i)
		}
		wantIP, wantPort := cluster, uint16(6000)
		if i == 0 {
			wantIP, wantPort = rewritten, 7000
		}
		if p.DstIP != wantIP || p.DstPort != wantPort {
			t.Fatalf("node %d: header %s:%d, want %s:%d", i, p.DstIP, p.DstPort, wantIP, wantPort)
		}
	}
	for _, p := range got {
		p.Release()
	}
	if !bytes.Equal(orig.Payload, msg) || !orig.ChecksumOK() {
		t.Fatal("releasing the node copies disturbed the write queue's payload")
	}
}

// TestRestoredWriteQueueSurvivesCloneRelease covers the share lifetime of
// restored buffers: a socket is restored with full-MSS segments in its
// write queue, retransmits them into a lossy path, and the wire clones
// die before the queue's originals. The queue's bytes must stay intact —
// a restored payload that entered the holder scheme without a count of
// its own would be recycled under the queue by the first clone's Release.
// The restored queue is the destination stack's: minted by its pool and,
// once the peer has acknowledged everything, back in it.
func TestRestoredWriteQueueSurvivesCloneRelease(t *testing.T) {
	p := newPair(t)
	cli, srv := p.connect(t, 4102)
	var rcvd []byte
	srv.OnReadable = func() { rcvd = srv.RecvAppend(rcvd) }
	p.nb.SetFault(rxLoss(func(_ simtime.Time, pk *netsim.Packet) bool { return len(pk.Payload) > 0 }))
	data := make([]byte, 3*DefaultMSS)
	for i := range data {
		data[i] = byte(i*31 + i>>8)
	}
	if err := cli.Send(data); err != nil {
		t.Fatal(err)
	}
	p.sched.RunFor(20 * time.Millisecond)
	cli.Unhash()
	snap, err := DecodeTCPSnapshot(SnapshotTCP(cli).Encode())
	if err != nil {
		t.Fatal(err)
	}
	p.nb.SetFault(nil)

	// Restore onto a third stack that takes over addrA.
	c := NewStack(p.sched, "c", 999999)
	p.sw.Detach(p.a.nicByName("a.eth0"))
	nc := p.sw.Attach("c.eth0", addrA, netsim.GigabitEthernet)
	c.AttachNIC(nc, addrA)
	c.AddRoute(lan, 24, nc, addrA)
	// The peer never sees the first two retransmissions: b's capture
	// slot keeps those clones for the test to release itself.
	var lost []*netsim.Packet
	p.b.SetCapturer(captureFunc(func(pk *netsim.Packet) bool {
		if len(pk.Payload) > 0 && len(lost) < 2 {
			lost = append(lost, pk)
			return true
		}
		return false
	}))
	srcBefore := p.a.PoolStats()
	restored, err := RestoreTCP(c, snap)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(restored.WriteQueue()); n != 3 {
		t.Fatalf("restored write queue holds %d segments, want 3", n)
	}
	if got, want := c.PoolStats(), (netsim.PoolStats{PacketsMinted: 3, PayloadsMinted: 3}); got != want {
		t.Fatalf("destination pool after restore: %+v, want %+v", got, want)
	}
	if got := p.a.PoolStats(); got != srcBefore {
		t.Fatalf("restore drew on the source stack's pool: %+v -> %+v", srcBefore, got)
	}
	for i := 0; i < 10 && len(lost) < 2; i++ {
		p.sched.RunFor(time.Second) // two RTOs, the second backed off
	}
	if len(lost) != 2 || len(restored.WriteQueue()) == 0 {
		t.Fatalf("lost %d retransmissions, %d segments still queued", len(lost), len(restored.WriteQueue()))
	}
	head := restored.WriteQueue()[0]
	for _, pk := range lost {
		if &pk.Payload[0] != &head.Payload[0] {
			t.Fatal("retransmission clone does not share the queued payload")
		}
		pk.Release() // the wire clones die first
	}
	// Anything recycled by those releases would be handed out and
	// overwritten here.
	for i := 0; i < 64; i++ {
		scribble := c.pool.GetPayload(DefaultMSS)
		for j := range scribble {
			scribble[j] = 0xEE
		}
	}
	off := 0
	for i, seg := range restored.WriteQueue() {
		if !bytes.Equal(seg.Payload, data[off:off+len(seg.Payload)]) || !seg.ChecksumOK() {
			t.Fatalf("write-queue segment %d corrupted after its clones were released", i)
		}
		off += len(seg.Payload)
	}
	p.sched.RunFor(30 * time.Second)
	if !bytes.Equal(rcvd, data) {
		t.Fatalf("peer received %d bytes, want the %d sent intact", len(rcvd), len(data))
	}
	// 64 scribble buffers were taken and never returned; everything else
	// the destination minted is home again.
	if ps := c.PoolStats(); len(restored.WriteQueue()) != 0 || ps.PacketsIdle != ps.PacketsMinted || ps.PayloadsMinted-ps.PayloadsIdle != 64 {
		t.Fatalf("after the peer acknowledged everything: %d segments queued, pool %+v", len(restored.WriteQueue()), ps)
	}
}

// TestPacketReturnsToMintingStack: the segment a client sends sits, as a
// clone minted by the client's stack, in the server's receive queue; when
// the server's application reads it, the packet and its payload go back
// to the client stack's list — the server's stack never sees them — and
// the server's ACKs go home the same way.
func TestPacketReturnsToMintingStack(t *testing.T) {
	p := newPair(t)
	cli, srv := p.connect(t, 4104)
	if err := cli.Send(bytes.Repeat([]byte("x"), 300)); err != nil {
		t.Fatal(err)
	}
	p.sched.RunFor(10 * time.Millisecond)
	if len(srv.ReceiveQueue()) != 1 || len(cli.WriteQueue()) != 0 {
		t.Fatalf("receive queue %d, write queue %d: want the acked segment parked at the server",
			len(srv.ReceiveQueue()), len(cli.WriteQueue()))
	}
	a, b := p.a.PoolStats(), p.b.PoolStats()
	if a.PacketsMinted-a.PacketsIdle != 1 || a.PayloadsMinted-a.PayloadsIdle != 1 {
		t.Fatalf("client stack should have exactly the parked clone and its payload out: %+v", a)
	}
	if b.PacketsMinted == 0 || b.PacketsIdle != b.PacketsMinted || b.PayloadsMinted != 0 {
		t.Fatalf("server stack minted only ACKs and should have them all back: %+v", b)
	}
	srv.Discard()
	a.PacketsIdle++
	a.PayloadsIdle++
	if got := p.a.PoolStats(); got != a {
		t.Fatalf("client pool after the server read: %+v, want %+v", got, a)
	}
	if got := p.b.PoolStats(); got != b {
		t.Fatalf("server pool moved when it released a client packet: %+v -> %+v", b, got)
	}
}

// TestDrainInOnReadableEndsPacketUse: a reader that drains the receive
// queue from inside OnReadable releases the segment while segArrived is
// still on the stack. The struct is back in the pool then — here it is
// immediately reissued and dressed up as a FIN at the expected sequence
// number — and the state machine must not look at it again.
func TestDrainInOnReadableEndsPacketUse(t *testing.T) {
	p := newPair(t)
	cli, srv := p.connect(t, 4103)
	var reissued []*netsim.Packet
	srv.OnReadable = func() {
		if srv.Discard() == 0 {
			return
		}
		q := p.a.pool.NewPacket() // the struct just released: the client's stack minted it
		q.Flags, q.Seq = netsim.FlagFIN|netsim.FlagACK, srv.RcvNxt
		reissued = append(reissued, q)
	}
	for i := 0; i < 8; i++ {
		if err := cli.Send([]byte("tick")); err != nil {
			t.Fatal(err)
		}
		p.sched.RunFor(10 * time.Millisecond)
	}
	if len(reissued) != 8 {
		t.Fatalf("reader ran %d times", len(reissued))
	}
	if srv.EOF() || srv.State != TCPEstablished {
		t.Fatalf("a released segment was read again: eof=%v state=%v", srv.EOF(), srv.State)
	}
}
