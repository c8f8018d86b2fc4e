package netstack

import (
	"bytes"
	"testing"
	"time"

	"dvemig/internal/netsim"
	"dvemig/internal/simtime"
)

var (
	addrA = netsim.MakeAddr(192, 168, 0, 1)
	addrB = netsim.MakeAddr(192, 168, 0, 2)
	lan   = netsim.MakeAddr(192, 168, 0, 0)
)

// pair wires two stacks together over an in-cluster switch.
type pair struct {
	sched  *simtime.Scheduler
	sw     *netsim.Switch
	a, b   *Stack
	na, nb *netsim.NIC
}

func newPair(t *testing.T) *pair {
	t.Helper()
	sched := simtime.NewScheduler()
	sw := netsim.NewSwitch(sched)
	a := NewStack(sched, "a", 1000)
	b := NewStack(sched, "b", 50000) // very different jiffies on purpose
	na := sw.Attach("a.eth0", addrA, netsim.GigabitEthernet)
	nb := sw.Attach("b.eth0", addrB, netsim.GigabitEthernet)
	a.AttachNIC(na, addrA)
	b.AttachNIC(nb, addrB)
	a.AddRoute(lan, 24, na, addrA)
	b.AddRoute(lan, 24, nb, addrB)
	return &pair{sched: sched, sw: sw, a: a, b: b, na: na, nb: nb}
}

// rxLoss is a test fault program: the link drops the ingress packets it
// picks, at the instant they would reach the stack.
type rxLoss func(now simtime.Time, p *netsim.Packet) bool

func (f rxLoss) Apply(now simtime.Time, dir string, p *netsim.Packet) netsim.FaultAction {
	return netsim.FaultAction{Drop: dir == "rx" && f(now, p)}
}

// loseFirstData drops the first data segment the link delivers.
func loseFirstData() rxLoss {
	lost := false
	return func(_ simtime.Time, pk *netsim.Packet) bool {
		if lost || len(pk.Payload) == 0 {
			return false
		}
		lost = true
		return true
	}
}

// captureFunc fills a stack's capture slot in tests.
type captureFunc func(p *netsim.Packet) bool

func (f captureFunc) Capture(p *netsim.Packet) bool { return f(p) }

// connect establishes a client (on a) to a server listener (on b) and
// returns client socket and the accepted server-side socket.
func (p *pair) connect(t *testing.T, port uint16) (*TCPSocket, *TCPSocket) {
	t.Helper()
	lst := NewTCPSocket(p.b)
	if err := lst.Listen(addrB, port); err != nil {
		t.Fatal(err)
	}
	var srv *TCPSocket
	lst.OnAccept = func(c *TCPSocket) { srv = c }
	cli := NewTCPSocket(p.a)
	if err := cli.Connect(addrB, port); err != nil {
		t.Fatal(err)
	}
	p.sched.RunFor(100 * time.Millisecond)
	if cli.State != TCPEstablished {
		t.Fatalf("client state = %v", cli.State)
	}
	if srv == nil || srv.State != TCPEstablished {
		t.Fatalf("server side not established: %v", srv)
	}
	return cli, srv
}

func TestHandshake(t *testing.T) {
	p := newPair(t)
	cli, srv := p.connect(t, 3306)
	if cli.RemotePort != 3306 || srv.LocalPort != 3306 {
		t.Fatal("ports wrong")
	}
	if cli.SndNxt != cli.ISS+1 || srv.RcvNxt != cli.ISS+1 {
		t.Fatal("sequence numbers inconsistent after handshake")
	}
	if len(cli.WriteQueue()) != 0 || len(srv.WriteQueue()) != 0 {
		t.Fatal("write queues not empty after handshake")
	}
	if p.b.LookupEstablished(srv.Tuple()) != srv {
		t.Fatal("server socket not in ehash")
	}
}

func TestDataTransferIntegrity(t *testing.T) {
	p := newPair(t)
	cli, srv := p.connect(t, 4000)
	var got []byte
	srv.OnReadable = func() { got = append(got, srv.Recv()...) }
	msg := make([]byte, 100*1024) // ~71 MSS segments
	for i := range msg {
		msg[i] = byte(i * 31)
	}
	if err := cli.Send(msg); err != nil {
		t.Fatal(err)
	}
	p.sched.RunFor(2 * time.Second)
	if !bytes.Equal(got, msg) {
		t.Fatalf("received %d bytes, want %d; content match=%v", len(got), len(msg), bytes.Equal(got, msg))
	}
	if len(cli.WriteQueue()) != 0 || cli.SendBufLen() != 0 {
		t.Fatal("client did not drain its send state")
	}
	if cli.SndUna != cli.SndNxt {
		t.Fatal("not everything acknowledged")
	}
}

func TestBidirectionalEcho(t *testing.T) {
	p := newPair(t)
	cli, srv := p.connect(t, 4001)
	srv.OnReadable = func() {
		if d := srv.Recv(); len(d) > 0 {
			if err := srv.Send(d); err != nil {
				t.Errorf("echo send: %v", err)
			}
		}
	}
	var echoed []byte
	cli.OnReadable = func() { echoed = append(echoed, cli.Recv()...) }
	msg := []byte("the quick brown fox jumps over the lazy dog")
	cli.Send(msg)
	p.sched.RunFor(time.Second)
	if !bytes.Equal(echoed, msg) {
		t.Fatalf("echo mismatch: %q", echoed)
	}
}

func TestRetransmissionOnLoss(t *testing.T) {
	p := newPair(t)
	cli, srv := p.connect(t, 4002)
	var got []byte
	srv.OnReadable = func() { got = append(got, srv.Recv()...) }
	p.nb.SetFault(loseFirstData())
	cli.Send([]byte("hello"))
	p.sched.RunFor(5 * time.Second)
	if string(got) != "hello" {
		t.Fatalf("got %q after loss", got)
	}
	if cli.Retransmits == 0 {
		t.Fatal("expected a retransmission")
	}
}

func TestOutOfOrderReassembly(t *testing.T) {
	p := newPair(t)
	cli, srv := p.connect(t, 4003)
	var got []byte
	srv.OnReadable = func() { got = append(got, srv.Recv()...) }
	// Delay (steal and reinject later) the first data segment so the
	// second arrives first.
	var held *netsim.Packet
	p.b.SetCapturer(captureFunc(func(pk *netsim.Packet) bool {
		if held == nil && len(pk.Payload) > 0 {
			held = pk
			return true
		}
		return false
	}))
	cli.Send(bytes.Repeat([]byte("A"), DefaultMSS)) // segment 1
	cli.Send(bytes.Repeat([]byte("B"), 10))         // segment 2
	p.sched.RunFor(50 * time.Millisecond)
	if len(srv.OOOQueue()) != 1 {
		t.Fatalf("ooo queue = %d, want 1", len(srv.OOOQueue()))
	}
	p.b.SetCapturer(nil)
	p.b.Reinject(held)
	p.sched.RunFor(time.Second)
	want := append(bytes.Repeat([]byte("A"), DefaultMSS), bytes.Repeat([]byte("B"), 10)...)
	if !bytes.Equal(got, want) {
		t.Fatalf("reassembly failed: got %d bytes", len(got))
	}
	if len(srv.OOOQueue()) != 0 {
		t.Fatal("ooo queue not drained")
	}
}

func TestBacklogWhileLocked(t *testing.T) {
	p := newPair(t)
	cli, srv := p.connect(t, 4004)
	srv.Lock()
	cli.Send([]byte("deferred"))
	p.sched.RunFor(100 * time.Millisecond)
	if srv.BacklogLen() == 0 {
		t.Fatal("packet did not land on backlog")
	}
	if len(srv.Recv()) != 0 {
		t.Fatal("data visible before unlock")
	}
	srv.Unlock()
	p.sched.RunFor(100 * time.Millisecond)
	if string(srv.Recv()) != "deferred" {
		t.Fatal("backlog not processed on unlock")
	}
	if srv.BacklogLen() != 0 {
		t.Fatal("backlog not drained")
	}
}

func TestPrequeueFastPath(t *testing.T) {
	p := newPair(t)
	cli, srv := p.connect(t, 4005)
	srv.StartRecvWait()
	cli.Send([]byte("fast"))
	// Run until idle and verify the data was processed via the
	// process-context drain.
	p.sched.RunFor(time.Second)
	if string(srv.Recv()) != "fast" {
		t.Fatal("prequeue path lost data")
	}
	if srv.PrequeueBusy() {
		t.Fatal("prequeue left busy")
	}
	srv.StopRecvWait()
}

func TestCloseHandshake(t *testing.T) {
	p := newPair(t)
	cli, srv := p.connect(t, 4006)
	cli.Send([]byte("bye"))
	p.sched.RunFor(100 * time.Millisecond)
	cli.Close()
	p.sched.RunFor(100 * time.Millisecond)
	if !srv.EOF() {
		t.Fatal("server did not see EOF")
	}
	if srv.State != TCPCloseWait {
		t.Fatalf("server state = %v, want CLOSE_WAIT", srv.State)
	}
	srv.Close()
	p.sched.RunFor(5 * time.Second)
	if srv.State != TCPClosed {
		t.Fatalf("server state = %v, want CLOSED", srv.State)
	}
	if cli.State != TCPClosed {
		t.Fatalf("client state = %v, want CLOSED", cli.State)
	}
	if p.b.LookupEstablished(srv.Tuple()) != nil {
		t.Fatal("closed socket still in ehash")
	}
}

func TestListenerClose(t *testing.T) {
	p := newPair(t)
	lst := NewTCPSocket(p.b)
	if err := lst.Listen(addrB, 5000); err != nil {
		t.Fatal(err)
	}
	if p.b.LookupBound(5000) != lst {
		t.Fatal("listener not in bhash")
	}
	lst.Close()
	if p.b.LookupBound(5000) != nil {
		t.Fatal("closed listener still bound")
	}
}

func TestDuplicateListenRejected(t *testing.T) {
	p := newPair(t)
	l1 := NewTCPSocket(p.b)
	if err := l1.Listen(addrB, 5001); err != nil {
		t.Fatal(err)
	}
	l2 := NewTCPSocket(p.b)
	if err := l2.Listen(addrB, 5001); err == nil {
		t.Fatal("duplicate listen accepted")
	}
}

// TestStolenAndReinject pins the capture slot's contract: a packet the
// capturer takes stays alive in its hands, and Reinject hands it to the
// socket without passing the capture slot again, and counts it.
func TestStolenAndReinject(t *testing.T) {
	p := newPair(t)
	var stolen []*netsim.Packet
	p.b.SetCapturer(captureFunc(func(pk *netsim.Packet) bool {
		stolen = append(stolen, pk)
		return true
	}))
	us := NewUDPSocket(p.b)
	if err := us.Bind(addrB, 7001); err != nil {
		t.Fatal(err)
	}
	ua := NewUDPSocket(p.a)
	ua.BindEphemeral(addrA)
	ua.SendTo(addrB, 7001, []byte("steal me"))
	p.sched.Run()
	if us.QueueLen() != 0 || len(stolen) != 1 {
		t.Fatal("packet was not stolen")
	}
	p.b.Reinject(stolen[0]) // the capturer is still in its slot
	d, ok := us.Recv()
	if !ok || string(d.Payload) != "steal me" {
		t.Fatal("reinjection failed")
	}
	if len(stolen) != 1 {
		t.Fatal("the reinjected packet passed the capture slot again")
	}
	if p.b.Stats.Reinjected != 1 {
		t.Fatal("reinjection not counted")
	}
}

func TestUDPRoundTrip(t *testing.T) {
	p := newPair(t)
	srv := NewUDPSocket(p.b)
	if err := srv.Bind(addrB, 27960); err != nil {
		t.Fatal(err)
	}
	srv.OnReadable = func() {
		d, _ := srv.Recv()
		srv.SendTo(d.SrcIP, d.SrcPort, append([]byte("re:"), d.Payload...))
	}
	cli := NewUDPSocket(p.a)
	cli.BindEphemeral(addrA)
	cli.SendTo(addrB, 27960, []byte("ping"))
	p.sched.Run()
	d, ok := cli.Recv()
	if !ok || string(d.Payload) != "re:ping" {
		t.Fatalf("udp echo failed: %v %q", ok, d.Payload)
	}
}

func TestUDPUnhashStopsDelivery(t *testing.T) {
	p := newPair(t)
	srv := NewUDPSocket(p.b)
	if err := srv.Bind(addrB, 27961); err != nil {
		t.Fatal(err)
	}
	srv.Unhash()
	cli := NewUDPSocket(p.a)
	cli.BindEphemeral(addrA)
	cli.SendTo(addrB, 27961, []byte("lost"))
	p.sched.Run()
	if srv.QueueLen() != 0 {
		t.Fatal("unhashed socket received a packet")
	}
	if err := srv.Rehash(); err != nil {
		t.Fatal(err)
	}
	cli.SendTo(addrB, 27961, []byte("found"))
	p.sched.Run()
	if d, ok := srv.Recv(); !ok || string(d.Payload) != "found" {
		t.Fatal("rehash did not restore delivery")
	}
}

func TestTCPUnhashClearsTimerAndLookup(t *testing.T) {
	p := newPair(t)
	cli, srv := p.connect(t, 4008)
	cli.Send([]byte("inflight"))
	// Unhash the server before the segment arrives.
	srv.Unhash()
	if p.b.LookupEstablished(srv.Tuple()) != nil {
		t.Fatal("unhashed socket still in ehash")
	}
	p.sched.RunFor(50 * time.Millisecond)
	if len(srv.Recv()) != 0 {
		t.Fatal("unhashed socket received data")
	}
	if err := srv.Rehash(); err != nil {
		t.Fatal(err)
	}
	// Client retransmits after RTO and data arrives.
	p.sched.RunFor(5 * time.Second)
	if string(srv.Recv()) != "inflight" {
		t.Fatal("data lost across unhash/rehash")
	}
}

func TestRouteLongestPrefix(t *testing.T) {
	sched := simtime.NewScheduler()
	sw := netsim.NewSwitch(sched)
	s := NewStack(sched, "s", 0)
	n1 := sw.Attach("eth0", netsim.MakeAddr(10, 0, 0, 1), netsim.GigabitEthernet)
	n2 := sw.Attach("eth1", netsim.MakeAddr(10, 0, 1, 1), netsim.GigabitEthernet)
	s.AttachNIC(n1, n1.Addr)
	s.AttachNIC(n2, n2.Addr)
	s.AddRoute(netsim.MakeAddr(10, 0, 0, 0), 8, n1, n1.Addr)
	s.AddRoute(netsim.MakeAddr(10, 0, 1, 0), 24, n2, n2.Addr)
	if src, _ := s.SourceAddrFor(netsim.MakeAddr(10, 0, 1, 55)); src != n2.Addr {
		t.Fatal("longest prefix not preferred")
	}
	if src, _ := s.SourceAddrFor(netsim.MakeAddr(10, 9, 9, 9)); src != n1.Addr {
		t.Fatal("fallback route not used")
	}
	if _, err := s.SourceAddrFor(netsim.MakeAddr(172, 16, 0, 1)); err == nil {
		t.Fatal("unroutable address accepted")
	}
}

func TestDstCacheReuse(t *testing.T) {
	p := newPair(t)
	d1, err := p.a.DstFor(addrB)
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := p.a.DstFor(addrB)
	if d1 != d2 {
		t.Fatal("destination cache did not reuse entry")
	}
	p.a.InvalidateDst(addrB)
	d3, _ := p.a.DstFor(addrB)
	if d3 == d1 {
		t.Fatal("invalidate did not evict")
	}
	d4, err := p.a.MakeDst(addrB)
	if err != nil {
		t.Fatal(err)
	}
	if d4 == d3 {
		t.Fatal("MakeDst returned the shared cache entry")
	}
}

func TestEphemeralPortsUnique(t *testing.T) {
	p := newPair(t)
	seen := map[uint16]bool{}
	for i := 0; i < 100; i++ {
		us := NewUDPSocket(p.a)
		us.BindEphemeral(addrA)
		if seen[us.LocalPort] {
			t.Fatalf("ephemeral port %d reused", us.LocalPort)
		}
		seen[us.LocalPort] = true
	}
}

func TestRTTMeasurementReasonable(t *testing.T) {
	p := newPair(t)
	cli, srv := p.connect(t, 4009)
	srv.OnReadable = func() { srv.Recv() }
	for i := 0; i < 20; i++ {
		cli.Send(bytes.Repeat([]byte("z"), 512))
		p.sched.RunFor(60 * time.Millisecond)
	}
	// Link RTT is ~100µs; jiffy granularity is 10ms, so SRTT should be
	// close to zero, definitely below 50ms, and RTO must respect MinRTO.
	if cli.SRTTms > 50 {
		t.Fatalf("SRTT = %dms, absurdly high", cli.SRTTms)
	}
	if cli.RTOms < int(MinRTO/1e6) {
		t.Fatalf("RTO below floor: %dms", cli.RTOms)
	}
}

// TestRTOMinFloorsTheTimer: a socket's RTOMin replaces MinRTO as its
// retransmission floor, and a zero RTOMin keeps MinRTO. Each socket loses
// the original and the first resend of one segment: the resends leave one
// floor and then two floors after the copy before them (backoff doubles
// from the floor), the next RTT sample brings RTOms back to the floor,
// and a snapshot does not carry the field.
func TestRTOMinFloorsTheTimer(t *testing.T) {
	for _, tc := range []struct {
		name          string
		rtoMin, floor simtime.Duration
	}{
		{"zero", 0, MinRTO},
		{"two-jiffies", 2 * simtime.JiffyPeriod, 2 * simtime.JiffyPeriod},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newPair(t)
			cli, srv := p.connect(t, 4030)
			cli.RTOMin = tc.rtoMin
			srv.OnReadable = func() { srv.Recv() }
			floorMs := int(tc.floor / 1e6)
			// One exchange for an RTT sample: on the LAN it reads zero
			// jiffies, so the RTO is the floor.
			cli.Send([]byte("warm"))
			p.sched.RunFor(50 * time.Millisecond)
			if cli.RTOms != floorMs {
				t.Fatalf("RTO after a zero-jiffy sample = %dms, want the %dms floor", cli.RTOms, floorMs)
			}

			var arrivals []simtime.Time
			p.nb.SetFault(rxLoss(func(now simtime.Time, pk *netsim.Packet) bool {
				if len(pk.Payload) == 0 {
					return false
				}
				arrivals = append(arrivals, now)
				return len(arrivals) <= 2
			}))
			cli.Send([]byte("lost twice"))
			p.sched.RunFor(time.Second)
			if len(arrivals) != 3 || cli.Retransmits != 2 {
				t.Fatalf("%d copies arrived, %d retransmits; want 3 and 2", len(arrivals), cli.Retransmits)
			}
			const slack = simtime.Duration(time.Millisecond)
			for i, want := range []simtime.Duration{tc.floor, 2 * tc.floor} {
				if gap := simtime.Duration(arrivals[i+1] - arrivals[i]); gap < want || gap > want+slack {
					t.Errorf("resend %d left %v after the copy before it, want %v", i+1, gap, want)
				}
			}
			if cli.SndUna != cli.SndNxt {
				t.Fatal("the resent segment was never acknowledged")
			}
			if cli.RTOms != floorMs {
				t.Errorf("RTO after the resend's sample = %dms, want the %dms floor", cli.RTOms, floorMs)
			}

			cli.Unhash()
			restored, err := RestoreTCP(p.b, SnapshotTCP(cli))
			if err != nil {
				t.Fatal(err)
			}
			if restored.RTOMin != 0 {
				t.Errorf("restored socket carries RTOMin %v; it is not serialized", restored.RTOMin)
			}
		})
	}
}

func TestCwndLimitsInflight(t *testing.T) {
	p := newPair(t)
	cli, _ := p.connect(t, 4010)
	cli.Cwnd = 2
	cli.Ssthresh = 2
	cli.Send(make([]byte, 10*DefaultMSS))
	// Before any ACK returns, only cwnd segments may be in flight.
	if got := len(cli.WriteQueue()); got != 2 {
		t.Fatalf("inflight = %d, want 2", got)
	}
	if cli.SendBufLen() != 8*DefaultMSS {
		t.Fatalf("sndbuf = %d", cli.SendBufLen())
	}
}

func TestSeqCompareWraps(t *testing.T) {
	if !seqLT(0xFFFFFFF0, 0x10) {
		t.Fatal("wrap-around compare broken")
	}
	if seqLT(0x10, 0xFFFFFFF0) {
		t.Fatal("wrap-around compare inverted")
	}
	if !seqLE(5, 5) {
		t.Fatal("seqLE not reflexive")
	}
}

func TestBroadcastDemuxOnlyOwnerAnswers(t *testing.T) {
	// Three server stacks share the cluster IP behind the broadcast
	// router; a client SYN must create exactly one connection.
	sched := simtime.NewScheduler()
	cluster := netsim.MakeAddr(203, 0, 113, 10)
	r := netsim.NewBroadcastRouter(sched, cluster)
	var stacks []*Stack
	for i := 0; i < 3; i++ {
		st := NewStack(sched, "srv", uint32(1000*i))
		nic := r.AttachServer("pub", netsim.GigabitEthernet)
		st.AttachNIC(nic, cluster)
		st.AddRoute(0, 0, nic, cluster) // default route to the world
		stacks = append(stacks, st)
	}
	// Only stack 1 owns port 6000.
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
	if stacks[0].Stats.NoSocketDrops == 0 || stacks[2].Stats.NoSocketDrops == 0 {
		t.Fatal("non-owner nodes should silently drop broadcast copies")
	}
	if len(stacks[0].EstablishedSockets())+len(stacks[2].EstablishedSockets()) != 0 {
		t.Fatal("non-owner created a connection")
	}
}

func TestFastRetransmitOnTripleDupAck(t *testing.T) {
	p := newPair(t)
	cli, srv := p.connect(t, 4020)
	var got []byte
	srv.OnReadable = func() { got = append(got, srv.Recv()...) }
	// Drop exactly the first data segment at b; later segments produce
	// dup ACKs that trigger fast retransmit well before the 200ms RTO.
	p.nb.SetFault(loseFirstData())
	// Send several segments back to back.
	cli.Send(make([]byte, 5*DefaultMSS))
	p.sched.RunFor(100 * time.Millisecond) // less than MinRTO
	if cli.FastRetransmits != 1 {
		t.Fatalf("fast retransmits = %d, want 1", cli.FastRetransmits)
	}
	if cli.Retransmits != 0 {
		t.Fatalf("RTO fired (%d) before fast retransmit could act", cli.Retransmits)
	}
	if len(got) != 5*DefaultMSS {
		t.Fatalf("received %d bytes, want %d", len(got), 5*DefaultMSS)
	}
	if cli.SndUna != cli.SndNxt {
		t.Fatal("not fully acknowledged")
	}
}

// lossFault drops a seeded-random fraction of a link's egress packets
// (faults.Program{BaseLoss}, which cannot be imported from here).
type lossFault struct {
	rng  *simtime.Rand
	rate float64
}

func (f *lossFault) Apply(_ simtime.Time, dir string, _ *netsim.Packet) netsim.FaultAction {
	return netsim.FaultAction{Drop: dir == "tx" && f.rng.Float64() < f.rate}
}

func TestBulkTransferOverLossyLink(t *testing.T) {
	// End-to-end robustness: 2% loss in both directions, a 500 KB
	// transfer must still complete intact via RTO + fast retransmit.
	sched := simtime.NewScheduler()
	sw := netsim.NewSwitch(sched)
	link := netsim.LinkParams{Bandwidth: 1e9, Latency: 100 * 1e3}
	a := NewStack(sched, "a", 1000)
	b := NewStack(sched, "b", 2000)
	na := sw.Attach("a.eth0", addrA, link)
	nb := sw.Attach("b.eth0", addrB, link)
	na.SetFault(&lossFault{rng: simtime.NewRand(1), rate: 0.02})
	nb.SetFault(&lossFault{rng: simtime.NewRand(2), rate: 0.02})
	a.AttachNIC(na, addrA)
	b.AttachNIC(nb, addrB)
	a.AddRoute(lan, 24, na, addrA)
	b.AddRoute(lan, 24, nb, addrB)
	lst := NewTCPSocket(b)
	if err := lst.Listen(addrB, 9100); err != nil {
		t.Fatal(err)
	}
	var srv *TCPSocket
	lst.OnAccept = func(ch *TCPSocket) { srv = ch }
	cli := NewTCPSocket(a)
	if err := cli.Connect(addrB, 9100); err != nil {
		t.Fatal(err)
	}
	sched.RunFor(5 * time.Second) // allow SYN retransmission under loss
	if cli.State != TCPEstablished || srv == nil {
		t.Fatalf("handshake failed under loss: %v", cli.State)
	}
	var got []byte
	srv.OnReadable = func() { got = append(got, srv.Recv()...) }
	msg := make([]byte, 500*1024)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	cli.Send(msg)
	sched.RunFor(120 * time.Second)
	if !bytes.Equal(got, msg) {
		t.Fatalf("lossy transfer corrupted: got %d of %d bytes", len(got), len(msg))
	}
	if na.FaultDropped == 0 && nb.FaultDropped == 0 {
		t.Fatal("loss model inactive; test vacuous")
	}
}

func TestFlowControlWindowStallsSender(t *testing.T) {
	p := newPair(t)
	cli, srv := p.connect(t, 4030)
	// Server app never reads: the receive buffer fills, the advertised
	// window closes, and the sender stalls instead of flooding.
	big := make([]byte, 4*DefaultRcvBuf)
	cli.Send(big)
	p.sched.RunFor(2 * time.Second)
	inflightAndDelivered := int(cli.SndNxt - cli.SndUna + uint32(srvBufBytes(srv)))
	if srvBufBytes(srv) > DefaultRcvBuf {
		t.Fatalf("receiver buffered %d > advertised max %d", srvBufBytes(srv), DefaultRcvBuf)
	}
	if cli.SendBufLen() == 0 {
		t.Fatal("sender did not stall on the closed window")
	}
	_ = inflightAndDelivered
	// The app drains; the window reopens and the transfer completes.
	var got []byte
	srv.OnReadable = func() { got = append(got, srv.Recv()...) }
	got = append(got, srv.Recv()...)
	p.sched.RunFor(30 * time.Second)
	if len(got) != len(big) {
		t.Fatalf("transfer incomplete after window reopened: %d of %d", len(got), len(big))
	}
	if cli.SendBufLen() != 0 {
		t.Fatal("send buffer not drained")
	}
}

func srvBufBytes(sk *TCPSocket) int {
	n := 0
	for _, p := range sk.ReceiveQueue() {
		n += len(p.Payload)
	}
	return n
}

func TestZeroWindowProbeSurvivesLostUpdate(t *testing.T) {
	p := newPair(t)
	cli, srv := p.connect(t, 4031)
	big := make([]byte, 2*DefaultRcvBuf)
	cli.Send(big)
	p.sched.RunFor(2 * time.Second)
	if cli.SendBufLen() == 0 {
		t.Fatal("setup: sender should be window-stalled")
	}
	// Drop every pure-ACK from the server for a while: the window-update
	// that Recv() sends is lost; only the persist probe can recover.
	dropping := true
	p.na.SetFault(rxLoss(func(_ simtime.Time, pk *netsim.Packet) bool {
		return dropping && len(pk.Payload) == 0
	}))
	srv.Recv() // frees the whole buffer; its window update is dropped
	p.sched.RunFor(300 * time.Millisecond)
	dropping = false
	var got []byte
	srv.OnReadable = func() { got = append(got, srv.Recv()...) }
	p.sched.RunFor(60 * time.Second)
	if cli.SendBufLen() != 0 {
		t.Fatalf("persist probe failed to unstick the sender (%d left)", cli.SendBufLen())
	}
}

func TestWindowRestoredAcrossMigration(t *testing.T) {
	p := newPair(t)
	cli, srv := p.connect(t, 4032)
	// Fill the server's buffer so its advertised window is partly closed.
	cli.Send(make([]byte, 30000))
	p.sched.RunFor(time.Second)
	srv.Unhash()
	snap := SnapshotTCP(srv)
	if snap.SndWnd == 0 && snap.RcvBufMax == 0 {
		t.Fatal("flow-control state missing from snapshot")
	}
	restored, err := RestoreTCP(p.b, snap)
	if err != nil {
		t.Fatal(err)
	}
	// The restored socket advertises a window consistent with its
	// restored (unread) receive queue.
	if got := restored.advertisedWindow(); int(got) != DefaultRcvBuf-30000 {
		t.Fatalf("restored window = %d, want %d", got, DefaultRcvBuf-30000)
	}
	if string(restored.Recv()[:5]) != string(make([]byte, 5)) {
		t.Fatal("queue content wrong")
	}
	if restored.advertisedWindow() != DefaultRcvBuf {
		t.Fatal("window did not reopen after drain")
	}
}

// TestUDPRecvLendsPayload pins the lending contract of Datagram.Payload:
// the bytes are the arriving packet's own until the next Recv or Close on
// the socket, a snapshot taken meanwhile owns its copy, and — this
// package runs with released payloads poisoned (export_test.go) — a
// payload kept past the loan reads 0xDB, which is what makes a handler
// that keeps one fail its package's tests.
func TestUDPRecvLendsPayload(t *testing.T) {
	p := newPair(t)
	srv := NewUDPSocket(p.b)
	if err := srv.Bind(addrB, 7002); err != nil {
		t.Fatal(err)
	}
	cli := NewUDPSocket(p.a)
	cli.BindEphemeral(addrA)
	for _, msg := range []string{"first", "second", "third"} {
		cli.SendTo(addrB, 7002, []byte(msg))
	}
	p.sched.Run()

	first, _ := srv.Recv()
	snap := SnapshotUDP(srv)
	if string(first.Payload) != "first" {
		t.Fatalf("lent payload reads %q", first.Payload)
	}
	second, _ := srv.Recv() // ends the first loan
	if string(first.Payload) == "first" || first.Payload[0] != 0xDB {
		t.Fatalf("a payload kept past its loan still reads %q: the tripwire is off", first.Payload)
	}
	if string(second.Payload) != "second" {
		t.Fatalf("second datagram reads %q", second.Payload)
	}
	if got := snap.Queue; len(got) != 2 || string(got[0].Payload) != "second" || string(got[1].Payload) != "third" {
		t.Fatalf("snapshot does not own its bytes: %q", got)
	}
	srv.Close() // ends the second loan; "third" stays queued
	if second.Payload[0] != 0xDB {
		t.Fatal("Close did not end the loan")
	}
	if third, ok := srv.Recv(); !ok || string(third.Payload) != "third" {
		t.Fatal("a datagram queued at Close is gone")
	}
	if _, ok := srv.Recv(); ok {
		t.Fatal("queue not empty")
	}
	// The failing Recv ended the last loan: everything the sender's pool
	// minted is back in it.
	if ps := p.a.PoolStats(); ps.PacketsMinted != ps.PacketsIdle || ps.PayloadsMinted != ps.PayloadsIdle {
		t.Fatalf("packets still out of the sender's pool: %+v", ps)
	}
}
