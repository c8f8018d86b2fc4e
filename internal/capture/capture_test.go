package capture

import (
	"testing"
	"testing/quick"
	"time"

	"dvemig/internal/netsim"
	"dvemig/internal/netstack"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
)

func TestTCPCaptureAndReinject(t *testing.T) {
	c := proc.NewCluster(simtime.NewScheduler(), 2)
	n1, n2 := c.Nodes[0], c.Nodes[1]
	// Client connects to a server socket owned by n1 on the cluster IP.
	lst := netstack.NewTCPSocket(n1.Stack)
	if err := lst.Listen(c.ClusterIP, 5555); err != nil {
		t.Fatal(err)
	}
	var srv *netstack.TCPSocket
	lst.OnAccept = func(ch *netstack.TCPSocket) { srv = ch }
	ext := c.NewExternalHost("cli")
	cli := netstack.NewTCPSocket(ext)
	if err := cli.Connect(c.ClusterIP, 5555); err != nil {
		t.Fatal(err)
	}
	c.Sched.RunFor(time.Second)
	if srv == nil {
		t.Fatal("no accept")
	}

	// Begin migration: destination n2 enables capture for the flow, then
	// the source disables the socket.
	svc := NewService(n2.Stack)
	key := netsim.FlowKey{RemoteIP: cli.LocalIP, RemotePort: cli.LocalPort,
		LocalPort: 5555, Proto: netsim.ProtoTCP}
	f := svc.Enable(key)
	srv.Unhash()

	// Client sends during the freeze window; packets are lost at n1 (no
	// socket) but captured at n2 thanks to the broadcast.
	cli.Send([]byte("during-freeze"))
	c.Sched.RunFor(50 * time.Millisecond)
	if f.QueueLen() == 0 {
		t.Fatal("nothing captured during freeze")
	}

	// Restore the socket on n2 and reinject.
	snap := netstack.SnapshotTCP(srv)
	restored, err := netstack.RestoreTCP(n2.Stack, snap)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	restored.OnReadable = func() { got = append(got, restored.Recv()...) }
	n, err := svc.ReinjectAndDisable(f)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no packets reinjected")
	}
	c.Sched.RunFor(time.Second)
	if string(got) != "during-freeze" {
		t.Fatalf("data after reinjection = %q", got)
	}
	if svc.ActiveFilters() != 0 {
		t.Fatal("filter left active")
	}
	// No retransmission was needed: the data arrived via the capture
	// queue before the client's RTO fired.
	if cli.Retransmits != 0 {
		t.Fatalf("client retransmitted %d times despite capture", cli.Retransmits)
	}
}

func TestCaptureDedupsBySeq(t *testing.T) {
	sched := simtime.NewScheduler()
	st := netstack.NewStack(sched, "dst", 0)
	svc := NewService(st)
	key := netsim.FlowKey{RemoteIP: 0x01020304, RemotePort: 1000, LocalPort: 80, Proto: netsim.ProtoTCP}
	f := svc.Enable(key)
	mk := func(seq uint32) *netsim.Packet {
		return &netsim.Packet{Proto: netsim.ProtoTCP, SrcIP: 0x01020304, SrcPort: 1000,
			DstIP: 0x0a000001, DstPort: 80, Seq: seq, Payload: []byte("x")}
	}
	if !svc.Capture(mk(100)) {
		t.Fatal("first packet not stolen")
	}
	if !svc.Capture(mk(100)) {
		t.Fatal("duplicate should still be consumed")
	}
	if !svc.Capture(mk(101)) {
		t.Fatal("second seq not stolen")
	}
	if f.QueueLen() != 2 {
		t.Fatalf("queue = %d, want 2 (dup removed)", f.QueueLen())
	}
	if f.Deduped != 1 {
		t.Fatalf("deduped = %d", f.Deduped)
	}
}

func TestUDPWildcardCapture(t *testing.T) {
	sched := simtime.NewScheduler()
	st := netstack.NewStack(sched, "dst", 0)
	svc := NewService(st)
	f := svc.Enable(netsim.FlowKey{LocalPort: 27960, Proto: netsim.ProtoUDP})
	for i := 0; i < 3; i++ {
		p := &netsim.Packet{Proto: netsim.ProtoUDP, SrcIP: netsim.Addr(100 + i),
			SrcPort: uint16(4000 + i), DstPort: 27960, Payload: []byte{byte(i)}}
		if !svc.Capture(p) {
			t.Fatal("udp packet not captured")
		}
	}
	// Non-matching port passes through.
	p := &netsim.Packet{Proto: netsim.ProtoUDP, DstPort: 1234}
	if svc.Capture(p) {
		t.Fatal("unrelated packet captured")
	}
	if f.QueueLen() != 3 {
		t.Fatalf("queue = %d", f.QueueLen())
	}
}

func TestCaptureFilterSelectivity(t *testing.T) {
	sched := simtime.NewScheduler()
	st := netstack.NewStack(sched, "dst", 0)
	svc := NewService(st)
	key := netsim.FlowKey{RemoteIP: 5, RemotePort: 50, LocalPort: 80, Proto: netsim.ProtoTCP}
	svc.Enable(key)
	cases := []struct {
		p    netsim.Packet
		want bool
	}{
		{netsim.Packet{Proto: netsim.ProtoTCP, SrcIP: 5, SrcPort: 50, DstPort: 80}, true},
		{netsim.Packet{Proto: netsim.ProtoTCP, SrcIP: 6, SrcPort: 50, DstPort: 80}, false},
		{netsim.Packet{Proto: netsim.ProtoTCP, SrcIP: 5, SrcPort: 51, DstPort: 80}, false},
		{netsim.Packet{Proto: netsim.ProtoTCP, SrcIP: 5, SrcPort: 50, DstPort: 81}, false},
		{netsim.Packet{Proto: netsim.ProtoUDP, SrcIP: 5, SrcPort: 50, DstPort: 80}, false},
	}
	for i, tc := range cases {
		pk := tc.p
		if got := svc.Capture(&pk); got != tc.want {
			t.Fatalf("case %d: taken %v, want %v", i, got, tc.want)
		}
	}
}

func TestDropDiscardsQueue(t *testing.T) {
	sched := simtime.NewScheduler()
	st := netstack.NewStack(sched, "dst", 0)
	svc := NewService(st)
	f := svc.Enable(netsim.FlowKey{LocalPort: 1, Proto: netsim.ProtoUDP})
	svc.Capture(&netsim.Packet{Proto: netsim.ProtoUDP, DstPort: 1})
	svc.Drop(f)
	if svc.ActiveFilters() != 0 || f.QueueLen() != 0 {
		t.Fatal("drop did not clean up")
	}
	if st.Stats.Reinjected != 0 {
		t.Fatal("drop must not reinject")
	}
}

func TestReinjectUnknownFilter(t *testing.T) {
	st := netstack.NewStack(simtime.NewScheduler(), "dst", 0)
	svc := NewService(st)
	if _, err := svc.ReinjectAndDisable(&Filter{}); err == nil {
		t.Fatal("unknown filter accepted")
	}
}

func TestMultipleFiltersIndependent(t *testing.T) {
	st := netstack.NewStack(simtime.NewScheduler(), "dst", 0)
	svc := NewService(st)
	f1 := svc.Enable(netsim.FlowKey{LocalPort: 10, Proto: netsim.ProtoUDP})
	f2 := svc.Enable(netsim.FlowKey{LocalPort: 20, Proto: netsim.ProtoUDP})
	svc.Capture(&netsim.Packet{Proto: netsim.ProtoUDP, DstPort: 10})
	svc.Capture(&netsim.Packet{Proto: netsim.ProtoUDP, DstPort: 20})
	svc.Capture(&netsim.Packet{Proto: netsim.ProtoUDP, DstPort: 20})
	if f1.QueueLen() != 1 || f2.QueueLen() != 2 {
		t.Fatalf("queues = %d,%d", f1.QueueLen(), f2.QueueLen())
	}
	if _, err := svc.ReinjectAndDisable(f1); err != nil {
		t.Fatal(err)
	}
	if svc.ActiveFilters() != 1 {
		t.Fatal("wrong filter removed")
	}
}

func TestFencePortDropsStaleFilters(t *testing.T) {
	st := netstack.NewStack(simtime.NewScheduler(), "dst", 0)
	svc := NewService(st)
	old := svc.EnableEpoch(netsim.FlowKey{LocalPort: 70, RemoteIP: 8, RemotePort: 8, Proto: netsim.ProtoUDP}, 1)
	cur := svc.EnableEpoch(netsim.FlowKey{LocalPort: 70, RemoteIP: 9, RemotePort: 9, Proto: netsim.ProtoUDP}, 2)
	other := svc.EnableEpoch(netsim.FlowKey{LocalPort: 71, Proto: netsim.ProtoUDP}, 1)
	svc.Capture(&netsim.Packet{Proto: netsim.ProtoUDP, SrcIP: 8, SrcPort: 8, DstPort: 70})
	svc.Capture(&netsim.Packet{Proto: netsim.ProtoUDP, SrcIP: 9, SrcPort: 9, DstPort: 70})
	svc.Capture(&netsim.Packet{Proto: netsim.ProtoUDP, DstPort: 71})

	if dropped := svc.FencePort(70, 2); dropped != 1 {
		t.Fatalf("FencePort dropped %d filters, want 1", dropped)
	}
	if old.QueueLen() != 0 {
		t.Fatal("stale filter kept its queue")
	}
	if cur.QueueLen() != 1 || other.QueueLen() != 1 {
		t.Fatal("fence touched filters at or above the epoch, or on another port")
	}
	if svc.ActiveFilters() != 2 {
		t.Fatalf("active filters = %d, want 2", svc.ActiveFilters())
	}
	if svc.Fenced != 1 {
		t.Fatalf("Fenced = %d, want 1", svc.Fenced)
	}
	if svc.PortFence(70) != 2 || svc.PortFence(71) != 0 {
		t.Fatal("PortFence watermark wrong")
	}
	// Fences only ratchet forward.
	if svc.FencePort(70, 1) != 0 || svc.PortFence(70) != 2 {
		t.Fatal("fence moved backward")
	}
	// The surviving current-epoch filter still reinjects normally.
	if n, err := svc.ReinjectAndDisable(cur); err != nil || n != 1 {
		t.Fatalf("current-epoch reinject = %d, %v", n, err)
	}
}

func TestEnableBelowFenceIsInert(t *testing.T) {
	st := netstack.NewStack(simtime.NewScheduler(), "dst", 0)
	svc := NewService(st)
	svc.FencePort(80, 5)
	f := svc.EnableEpoch(netsim.FlowKey{LocalPort: 80, Proto: netsim.ProtoUDP}, 4)
	if svc.ActiveFilters() != 0 {
		t.Fatal("stale filter was installed")
	}
	if svc.Capture(&netsim.Packet{Proto: netsim.ProtoUDP, DstPort: 80}) {
		t.Fatal("inert filter captured a packet")
	}
	if f.QueueLen() != 0 || f.Captured != 0 {
		t.Fatal("inert filter has state")
	}
	if svc.Fenced != 1 {
		t.Fatalf("Fenced = %d, want 1", svc.Fenced)
	}
	// Legacy Enable (epoch 0) on a fenced port is likewise inert.
	svc.Enable(netsim.FlowKey{LocalPort: 80, Proto: netsim.ProtoUDP})
	if svc.ActiveFilters() != 0 {
		t.Fatal("legacy filter installed below fence")
	}
	// At or above the fence installs normally.
	g := svc.EnableEpoch(netsim.FlowKey{LocalPort: 80, Proto: netsim.ProtoUDP}, 5)
	if svc.ActiveFilters() != 1 {
		t.Fatal("fresh filter not installed")
	}
	svc.Drop(g)
}

func TestReinjectRefusedBelowFence(t *testing.T) {
	st := netstack.NewStack(simtime.NewScheduler(), "dst", 0)
	svc := NewService(st)
	f := svc.EnableEpoch(netsim.FlowKey{LocalPort: 90, Proto: netsim.ProtoUDP}, 1)
	svc.Capture(&netsim.Packet{Proto: netsim.ProtoUDP, DstPort: 90})
	// Ownership moves to epoch 2 elsewhere while the caller still holds f.
	// The fence GCs the installed filter immediately, and a later attempt
	// to reinject the stale handle must be refused without reinjection.
	svc.FencePort(90, 2)
	if svc.ActiveFilters() != 0 {
		t.Fatal("fence left the stale filter installed")
	}
	if n, err := svc.ReinjectAndDisable(f); err == nil || n != 0 {
		t.Fatalf("fenced reinjection allowed: n=%d err=%v", n, err)
	}
	if st.Stats.Reinjected != 0 {
		t.Fatal("fenced filter reinjected packets")
	}
}

func TestCaptureMultisetProperty(t *testing.T) {
	// For any random packet sequence: every non-duplicate matching packet
	// is captured exactly once; reinjection releases exactly the captured
	// set; non-matching packets always pass through.
	f := func(seqs []uint16, ports []uint8) bool {
		sched := simtime.NewScheduler()
		st := netstack.NewStack(sched, "dst", 0)
		svc := NewService(st)
		filt := svc.Enable(netsim.FlowKey{RemoteIP: 9, RemotePort: 99, LocalPort: 80, Proto: netsim.ProtoTCP})
		seen := map[uint32]bool{}
		wantCaptured := 0
		n := len(seqs)
		if len(ports) < n {
			n = len(ports)
		}
		for i := 0; i < n; i++ {
			match := ports[i]%2 == 0
			p := &netsim.Packet{Proto: netsim.ProtoTCP, SrcIP: 9, SrcPort: 99,
				DstPort: 80, Seq: uint32(seqs[i]), Payload: []byte{1}}
			if !match {
				p.DstPort = 81
			}
			taken := svc.Capture(p)
			if taken != match {
				return false // a duplicate is consumed too, just not queued
			}
			if match && !seen[p.Seq] {
				seen[p.Seq] = true
				wantCaptured++
			}
		}
		if filt.QueueLen() != wantCaptured {
			return false
		}
		rel, err := svc.ReinjectAndDisable(filt)
		if err != nil {
			return false
		}
		return rel == wantCaptured && int(st.Stats.Reinjected) == wantCaptured
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestIdleFilterCostsOneObject: a filter that is armed and disabled
// without seeing a packet — most of a migration's filters — allocates
// only itself, whether it is the one that fills and empties the stack's
// capture slot or another filter holds the slot; the TCP dedup set is
// made on the first capture.
func TestIdleFilterCostsOneObject(t *testing.T) {
	st := netstack.NewStack(simtime.NewScheduler(), "dst", 0)
	svc := NewService(st)
	key := netsim.FlowKey{RemoteIP: 9, RemotePort: 9, LocalPort: 2, Proto: netsim.ProtoTCP}
	idle := func() {
		f := svc.EnableEpoch(key, 1)
		if _, err := svc.ReinjectAndDisable(f); err != nil {
			t.Fatal(err)
		}
	}
	idle() // grows the filter list
	if n := testing.AllocsPerRun(100, idle); n != 1 {
		t.Fatalf("the only filter allocates %v objects, want 1 (the Filter)", n)
	}
	svc.Enable(netsim.FlowKey{LocalPort: 1, Proto: netsim.ProtoTCP}) // holds the slot
	if n := testing.AllocsPerRun(100, idle); n != 1 {
		t.Fatalf("an idle filter allocates %v objects, want 1 (the Filter)", n)
	}
	f := svc.Enable(key)
	svc.Capture(&netsim.Packet{Proto: netsim.ProtoTCP, SrcIP: 9, SrcPort: 9, DstPort: 2, Seq: 5})
	svc.Capture(&netsim.Packet{Proto: netsim.ProtoTCP, SrcIP: 9, SrcPort: 9, DstPort: 2, Seq: 5})
	if f.QueueLen() != 1 || f.Deduped != 1 {
		t.Fatalf("after a duplicate: queued %d, deduped %d", f.QueueLen(), f.Deduped)
	}
}
