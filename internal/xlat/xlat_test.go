package xlat

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"dvemig/internal/netsim"
	"dvemig/internal/netstack"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
)

// setupMigratedConn builds the paper's §III-C scenario: a process on IP1
// (node1) holds a TCP connection with a peer on IP3 (node3); the socket
// then migrates to IP2 (node2). Returns the restored socket on node2 and
// the peer socket on node3.
func setupMigratedConn(t *testing.T) (c *proc.Cluster, moved, peer *netstack.TCPSocket) {
	t.Helper()
	c = proc.NewCluster(simtime.NewScheduler(), 3)
	n1, n2, n3 := c.Nodes[0], c.Nodes[1], c.Nodes[2]
	lst := netstack.NewTCPSocket(n3.Stack)
	if err := lst.Listen(n3.LocalIP, 3306); err != nil {
		t.Fatal(err)
	}
	lst.OnAccept = func(ch *netstack.TCPSocket) { peer = ch }
	sk := netstack.NewTCPSocket(n1.Stack)
	if err := sk.Connect(n3.LocalIP, 3306); err != nil {
		t.Fatal(err)
	}
	c.Sched.RunFor(time.Second)
	if peer == nil {
		t.Fatal("setup: no connection")
	}
	// Install the translation filter on the peer's host, then migrate.
	xl := NewTranslator(n3.Stack)
	rule := Rule{Proto: netsim.ProtoTCP, OldAddr: n1.LocalIP, NewAddr: n2.LocalIP,
		LocalPort: peer.LocalPort, RemotePort: peer.RemotePort}
	if err := xl.Install(rule); err != nil {
		t.Fatal(err)
	}
	sk.Unhash()
	snap := netstack.SnapshotTCP(sk)
	// The local IP of an in-cluster socket changes with the migration
	// (§III-C); the migration engine rewrites it before restoring, and
	// the translation filter on the peer hides the change.
	snap.LocalIP = n2.LocalIP
	moved, err := netstack.RestoreTCP(n2.Stack, snap)
	if err != nil {
		t.Fatal(err)
	}
	return c, moved, peer
}

func TestInClusterMigrationTransparent(t *testing.T) {
	c, moved, peer := setupMigratedConn(t)
	var atPeer, atMoved []byte
	peer.OnReadable = func() { atPeer = append(atPeer, peer.Recv()...) }
	moved.OnReadable = func() { atMoved = append(atMoved, moved.Recv()...) }

	// Migrated socket talks to the peer: its packets claim SrcIP=IP1
	// (it kept its identity), the peer answers to IP1, the filter
	// rewrites to IP2. Both directions must flow.
	moved.Send([]byte("UPDATE world SET x=1"))
	c.Sched.RunFor(time.Second)
	if string(atPeer) != "UPDATE world SET x=1" {
		t.Fatalf("peer received %q", atPeer)
	}
	peer.Send([]byte("OK"))
	c.Sched.RunFor(time.Second)
	if string(atMoved) != "OK" {
		t.Fatalf("moved socket received %q", atMoved)
	}
	// The peer never noticed: its socket still names IP1 as remote.
	if peer.RemoteIP != c.Nodes[0].LocalIP {
		t.Fatal("peer's view of the connection changed")
	}
	// And checksums stayed valid end to end (verified implicitly by
	// delivery; verify the filter fixed them on a sample packet).
}

func TestTranslationChecksumAndDstEntry(t *testing.T) {
	c := proc.NewCluster(simtime.NewScheduler(), 3)
	n1, n2, n3 := c.Nodes[0], c.Nodes[1], c.Nodes[2]
	xl := NewTranslator(n3.Stack)
	rule := Rule{Proto: netsim.ProtoTCP, OldAddr: n1.LocalIP, NewAddr: n2.LocalIP,
		LocalPort: 3306, RemotePort: 40000}
	if err := xl.Install(rule); err != nil {
		t.Fatal(err)
	}
	// Outgoing packet from the peer socket, carrying the *old* dst entry.
	oldDst, _ := n3.Stack.DstFor(n1.LocalIP)
	p := &netsim.Packet{Proto: netsim.ProtoTCP, SrcIP: n3.LocalIP, DstIP: n1.LocalIP,
		SrcPort: 3306, DstPort: 40000, Payload: []byte("q"), Dst: oldDst}
	p.FixChecksum()
	// Run the LOCAL_OUT slot by transmitting through the stack: observe
	// at node2 that the packet arrives with a valid checksum.
	var got *netsim.Packet
	n2.LocalNIC.AttachTap(tapFunc(func(ev netsim.TapEvent, pk *netsim.Packet) {
		if ev == netsim.TapRx {
			got = pk.Clone()
		}
	}))
	n3.LocalNIC.AttachTap(tapFunc(func(ev netsim.TapEvent, pk *netsim.Packet) {
		if ev == netsim.TapTx && pk.Dst == oldDst {
			t.Error("destination cache entry not replaced")
		}
	}))
	n3.Stack.TransmitRaw(p)
	c.Sched.RunFor(time.Second)
	if got == nil {
		t.Fatal("packet did not reach the new node — dst entry still pointed at the old one")
	}
	if got.DstIP != n2.LocalIP {
		t.Fatalf("dst not rewritten: %s", got.DstIP)
	}
	if !got.ChecksumOK() {
		t.Fatal("checksum not fixed after rewrite")
	}
	out, _, ok := xl.Stats(rule)
	if !ok || out != 1 {
		t.Fatalf("stats out = %d", out)
	}
}

// tapFunc observes a NIC's packet events in tests.
type tapFunc func(ev netsim.TapEvent, p *netsim.Packet)

func (f tapFunc) PacketEvent(_ simtime.Time, ev netsim.TapEvent, p *netsim.Packet) { f(ev, p) }

func TestIncomingRewrite(t *testing.T) {
	c := proc.NewCluster(simtime.NewScheduler(), 3)
	n1, n2, n3 := c.Nodes[0], c.Nodes[1], c.Nodes[2]
	xl := NewTranslator(n3.Stack)
	rule := Rule{Proto: netsim.ProtoUDP, OldAddr: n1.LocalIP, NewAddr: n2.LocalIP,
		LocalPort: 3306, RemotePort: 40000}
	if err := xl.Install(rule); err != nil {
		t.Fatal(err)
	}
	us := netstack.NewUDPSocket(n3.Stack)
	if err := us.Bind(n3.LocalIP, 3306); err != nil {
		t.Fatal(err)
	}
	// A datagram from the migrated endpoint on n2 reaches the peer's
	// socket on n3 as if it came from n1.
	mk := func() *netsim.Packet {
		p := &netsim.Packet{Proto: netsim.ProtoUDP, SrcIP: n2.LocalIP, DstIP: n3.LocalIP,
			SrcPort: 40000, DstPort: 3306, Payload: []byte("r")}
		p.FixChecksum()
		return p
	}
	n2.Stack.TransmitRaw(mk())
	c.Sched.RunFor(time.Second)
	d, ok := us.Recv()
	if !ok {
		t.Fatal("packet not delivered")
	}
	if d.SrcIP != n1.LocalIP {
		t.Fatalf("source not rewritten back: %s", d.SrcIP)
	}
	p := mk()
	xl.In(p)
	if p.SrcIP != n1.LocalIP || !p.ChecksumOK() {
		t.Fatal("checksum not fixed on ingress rewrite")
	}
	_, in, _ := xl.Stats(rule)
	if in != 2 {
		t.Fatalf("stats in = %d", in)
	}
}

func TestRuleRemovalRestoresPassthrough(t *testing.T) {
	c := proc.NewCluster(simtime.NewScheduler(), 3)
	n1, n2, n3 := c.Nodes[0], c.Nodes[1], c.Nodes[2]
	xl := NewTranslator(n3.Stack)
	rule := Rule{Proto: netsim.ProtoTCP, OldAddr: n1.LocalIP, NewAddr: n2.LocalIP,
		LocalPort: 3306, RemotePort: 40000}
	if err := xl.Install(rule); err != nil {
		t.Fatal(err)
	}
	if err := xl.Install(rule); err != nil { // idempotent
		t.Fatal(err)
	}
	if len(xl.Rules()) != 1 {
		t.Fatal("idempotent install duplicated rule")
	}
	xl.Remove(rule)
	if len(xl.Rules()) != 0 {
		t.Fatal("rule not removed")
	}
	if _, _, ok := xl.Stats(rule); ok {
		t.Fatal("stats for removed rule")
	}
}

func TestInstallNoRoute(t *testing.T) {
	st := netstack.NewStack(simtime.NewScheduler(), "lonely", 0)
	xl := NewTranslator(st)
	err := xl.Install(Rule{Proto: netsim.ProtoTCP, OldAddr: 1, NewAddr: 2})
	if err == nil {
		t.Fatal("install without route accepted")
	}
}

func TestTransdProtocol(t *testing.T) {
	c := proc.NewCluster(simtime.NewScheduler(), 3)
	n1, n2, n3 := c.Nodes[0], c.Nodes[1], c.Nodes[2]
	d, err := StartTransd(n3.Stack, n3.LocalIP)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(n1.Stack, n1.LocalIP)
	rule := Rule{Proto: netsim.ProtoTCP, OldAddr: n1.LocalIP, NewAddr: n2.LocalIP,
		LocalPort: 3306, RemotePort: 40000}
	var result error = errors.New("pending")
	cl.Request(n3.LocalIP, true, rule, func(e error) { result = e })
	c.Sched.RunFor(time.Second)
	if result != nil {
		t.Fatalf("add request failed: %v", result)
	}
	if len(d.Translator().Rules()) != 1 {
		t.Fatal("rule not installed by daemon")
	}
	if cl.Outstanding() != 0 {
		t.Fatal("request left pending")
	}
	// Remove.
	result = errors.New("pending")
	cl.Request(n3.LocalIP, false, rule, func(e error) { result = e })
	c.Sched.RunFor(time.Second)
	if result != nil || len(d.Translator().Rules()) != 0 {
		t.Fatal("remove failed")
	}
}

func TestTransdTimeout(t *testing.T) {
	c := proc.NewCluster(simtime.NewScheduler(), 2)
	n1 := c.Nodes[0]
	cl := NewClient(n1.Stack, n1.LocalIP)
	var result error
	done := false
	// No transd running on node2.
	cl.Request(c.Nodes[1].LocalIP, true, Rule{Proto: netsim.ProtoTCP,
		OldAddr: n1.LocalIP, NewAddr: n1.LocalIP}, func(e error) { result = e; done = true })
	c.Sched.RunFor(5 * time.Second)
	if !done || result == nil {
		t.Fatal("request to dead daemon did not time out")
	}
}

func TestTransdNakOnBadRule(t *testing.T) {
	c := proc.NewCluster(simtime.NewScheduler(), 2)
	n1, n2 := c.Nodes[0], c.Nodes[1]
	if _, err := StartTransd(n2.Stack, n2.LocalIP); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(n1.Stack, n1.LocalIP)
	var result error
	// NewAddr unroutable from n2 (an external address is routable via
	// default route, so use 0 which routes fine... use a LAN address
	// outside the /24? 10.9.9.9 hits the default route too). The daemon
	// naks only when MakeDst fails; on the cluster every address routes,
	// so instead send a malformed request directly.
	us := netstack.NewUDPSocket(n1.Stack)
	us.BindEphemeral(n1.LocalIP)
	gotNak := false
	us.OnReadable = func() {
		d, _ := us.Recv()
		if len(d.Payload) > 0 && d.Payload[0] == opNak {
			gotNak = true
		}
	}
	us.SendTo(n2.LocalIP, TransdPort, []byte{9, 9})
	c.Sched.RunFor(time.Second)
	if !gotNak {
		t.Fatal("malformed request not nak'd")
	}
	_ = cl
	_ = result
}

func TestRequestEncodingRoundTrip(t *testing.T) {
	r := Rule{Proto: netsim.ProtoUDP, OldAddr: 0xAABBCCDD, NewAddr: 0x11223344,
		LocalPort: 1234, RemotePort: 4321}
	op, id, got, err := decodeRequest(encodeRequest(opAdd, 77, r))
	if err != nil || op != opAdd || id != 77 || got != r {
		t.Fatalf("roundtrip: %v %v %v %v", op, id, got, err)
	}
	if !bytes.Equal(encodeRequest(opRemove, 1, r), encodeRequest(opRemove, 1, r)) {
		t.Fatal("encoding not deterministic")
	}
}

func TestStaleEpochInstallRejected(t *testing.T) {
	c := proc.NewCluster(simtime.NewScheduler(), 3)
	n1, n2, n3 := c.Nodes[0], c.Nodes[1], c.Nodes[2]
	xl := NewTranslator(n3.Stack)
	base := Rule{Proto: netsim.ProtoTCP, OldAddr: n1.LocalIP, NewAddr: n2.LocalIP,
		LocalPort: 3306, RemotePort: 40000}

	fresh := base
	fresh.Epoch = 3
	if err := xl.Install(fresh); err != nil {
		t.Fatal(err)
	}
	// A superseded owner re-pointing the flow at itself must be refused.
	stale := base
	stale.Epoch = 2
	stale.NewAddr = n1.LocalIP + 1 // some other target
	if err := xl.Install(stale); err == nil {
		t.Fatal("stale-epoch install accepted")
	}
	if xl.Stale != 1 {
		t.Fatalf("Stale = %d, want 1", xl.Stale)
	}
	if got := xl.Rules()[0]; got != fresh {
		t.Fatalf("installed rule changed: %v", got)
	}
	// A higher epoch retargets (supersede = GC of the old rule).
	newer := base
	newer.Epoch = 4
	newer.NewAddr = n3.LocalIP
	if err := xl.Install(newer); err != nil {
		t.Fatal(err)
	}
	if len(xl.Rules()) != 1 || xl.Rules()[0] != newer {
		t.Fatalf("retarget failed: %v", xl.Rules())
	}
	// A stale remover (exact-match removal carries its own old epoch)
	// cannot dismantle the fresh rule.
	xl.Remove(fresh)
	if len(xl.Rules()) != 1 {
		t.Fatal("stale remove dismantled a fresh rule")
	}
	// Stale identity install (migration "back home" claimed by an old
	// epoch) must not drop the fresh rule either.
	staleHome := base
	staleHome.Epoch = 1
	staleHome.NewAddr = staleHome.OldAddr
	if err := xl.Install(staleHome); err == nil {
		t.Fatal("stale identity install accepted")
	}
	if len(xl.Rules()) != 1 {
		t.Fatal("stale identity install dropped the fresh rule")
	}
}

func TestFenceRemotePortGCsRules(t *testing.T) {
	c := proc.NewCluster(simtime.NewScheduler(), 3)
	n1, n2, n3 := c.Nodes[0], c.Nodes[1], c.Nodes[2]
	xl := NewTranslator(n3.Stack)
	mk := func(remotePort uint16, ep uint64) Rule {
		return Rule{Proto: netsim.ProtoTCP, OldAddr: n1.LocalIP, NewAddr: n2.LocalIP,
			LocalPort: 3306, RemotePort: remotePort, Epoch: ep}
	}
	if err := xl.Install(mk(40000, 1)); err != nil {
		t.Fatal(err)
	}
	if err := xl.Install(mk(40001, 2)); err != nil {
		t.Fatal(err)
	}
	if dropped := xl.FenceRemotePort(40000, 2); dropped != 1 {
		t.Fatalf("fence dropped %d, want 1", dropped)
	}
	if len(xl.Rules()) != 1 || xl.Rules()[0].RemotePort != 40001 {
		t.Fatalf("wrong rule GC'd: %v", xl.Rules())
	}
	if xl.PortFence(40000) != 2 {
		t.Fatal("fence watermark not recorded")
	}
	// Installs below the fence are now refused even with no rule present.
	if err := xl.Install(mk(40000, 1)); err == nil {
		t.Fatal("post-fence stale install accepted")
	}
	// At the fence: accepted.
	if err := xl.Install(mk(40000, 2)); err != nil {
		t.Fatal(err)
	}
	// Fence ratchets forward only.
	if xl.FenceRemotePort(40000, 1) != 0 || xl.PortFence(40000) != 2 {
		t.Fatal("fence moved backward")
	}
}

func TestRequestEncodingEpochAndLegacy(t *testing.T) {
	r := Rule{Proto: netsim.ProtoTCP, OldAddr: 1, NewAddr: 2,
		LocalPort: 10, RemotePort: 20, Epoch: 0x1122334455667788}
	op, id, got, err := decodeRequest(encodeRequest(opAdd, 9, r))
	if err != nil || op != opAdd || id != 9 || got != r {
		t.Fatalf("epoch roundtrip: %v %v %v %v", op, id, got, err)
	}
	// An 18-byte frame without the epoch, which no sender writes, is
	// refused rather than read as an unfenced rule.
	legacy := encodeRequest(opAdd, 9, r)[:18]
	if _, _, got, err = decodeRequest(legacy); err == nil {
		t.Fatalf("18-byte frame decoded as %v", got)
	}
}

func TestRuleString(t *testing.T) {
	r := Rule{Proto: 6, OldAddr: netsim.MakeAddr(192, 168, 1, 1),
		NewAddr: netsim.MakeAddr(192, 168, 1, 2), LocalPort: 3306, RemotePort: 400}
	if r.String() == "" {
		t.Fatal("empty string")
	}
}
