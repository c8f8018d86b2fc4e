package sockmig

import (
	"bytes"
	"hash/fnv"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"dvemig/internal/netsim"
	"dvemig/internal/netstack"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
)

func TestStrategyString(t *testing.T) {
	if Iterative.String() != "iterative" || Collective.String() != "collective" ||
		IncrementalCollective.String() != "incremental collective" {
		t.Fatal("names wrong")
	}
	if Strategy(9).String() != "unknown" {
		t.Fatal("unknown strategy")
	}
}

func TestSockDeltaEncodeDecodeRoundTrip(t *testing.T) {
	f := func(fd uint16, secData, udpData []byte) bool {
		if len(secData) == 0 {
			secData = []byte{1}
		}
		d := &SockDelta{Round: 3, Socks: []SockUpdate{
			{FD: int(fd), Kind: 'T', Sections: []SectionUpdate{
				{ID: netstack.SecCore, Data: secData},
				{ID: netstack.SecWriteQueue, Data: []byte{}},
			}},
		}}
		if len(udpData) > 0 {
			d.Socks = append(d.Socks, SockUpdate{FD: int(fd) + 1, Kind: 'U', UDPData: udpData})
		}
		got, err := DecodeSockDelta(d.Encode())
		if err != nil {
			return false
		}
		// Normalize empty slices.
		for i := range d.Socks {
			for j := range d.Socks[i].Sections {
				if len(d.Socks[i].Sections[j].Data) == 0 {
					d.Socks[i].Sections[j].Data = nil
				}
			}
		}
		for i := range got.Socks {
			for j := range got.Socks[i].Sections {
				if len(got.Socks[i].Sections[j].Data) == 0 {
					got.Socks[i].Sections[j].Data = nil
				}
			}
		}
		return reflect.DeepEqual(d, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSockDeltaEncodedSizeMatches(t *testing.T) {
	d := &SockDelta{Round: 1, Socks: []SockUpdate{
		{FD: 3, Kind: 'T', Sections: []SectionUpdate{{ID: 1, Data: make([]byte, 100)}}},
		{FD: 4, Kind: 'U', UDPData: make([]byte, 37)},
	}}
	if got := len(d.Encode()); got != d.encodedSize() {
		t.Fatalf("encodedSize = %d, actual %d", d.encodedSize(), got)
	}
}

func TestDecodeCorruptDelta(t *testing.T) {
	d := &SockDelta{Round: 1, Socks: []SockUpdate{{FD: 3, Kind: 'T',
		Sections: []SectionUpdate{{ID: 1, Data: make([]byte, 50)}}}}}
	enc := d.Encode()
	for _, cut := range []int{2, 9, len(enc) - 1} {
		if _, err := DecodeSockDelta(enc[:cut]); err == nil {
			t.Fatalf("truncated delta (%d) accepted", cut)
		}
	}
}

// testEnv builds a cluster with a process on node1 holding nTCP client
// connections (from external hosts) and one in-cluster MySQL-style
// connection to node2.
type testEnv struct {
	c       *proc.Cluster
	p       *proc.Process
	clients []*netstack.TCPSocket
	dbPeer  *netstack.TCPSocket
}

func newEnv(t testing.TB, nTCP int) *testEnv {
	t.Helper()
	c := proc.NewCluster(simtime.NewScheduler(), 2)
	n1, n2 := c.Nodes[0], c.Nodes[1]
	p := n1.Spawn("zone", 1)
	lst := netstack.NewTCPSocket(n1.Stack)
	if err := lst.Listen(c.ClusterIP, 7000); err != nil {
		t.Fatal(err)
	}
	var accepted []*netstack.TCPSocket
	lst.OnAccept = func(ch *netstack.TCPSocket) { accepted = append(accepted, ch) }
	env := &testEnv{c: c, p: p}
	ext := c.NewExternalHost("clients")
	for i := 0; i < nTCP; i++ {
		cli := netstack.NewTCPSocket(ext)
		if err := cli.Connect(c.ClusterIP, 7000); err != nil {
			t.Fatal(err)
		}
		env.clients = append(env.clients, cli)
	}
	// DB session to node2.
	dbl := netstack.NewTCPSocket(n2.Stack)
	if err := dbl.Listen(n2.LocalIP, 3306); err != nil {
		t.Fatal(err)
	}
	dbl.OnAccept = func(ch *netstack.TCPSocket) { env.dbPeer = ch }
	db := netstack.NewTCPSocket(n1.Stack)
	if err := db.Connect(n2.LocalIP, 3306); err != nil {
		t.Fatal(err)
	}
	c.Sched.RunFor(time.Second)
	if len(accepted) != nTCP || env.dbPeer == nil {
		t.Fatalf("setup: accepted=%d db=%v", len(accepted), env.dbPeer)
	}
	for _, sk := range accepted {
		p.FDs.Install(&proc.TCPFile{Sock: sk})
	}
	p.FDs.Install(&proc.TCPFile{Sock: db})
	return env
}

func TestCaptureKeys(t *testing.T) {
	env := newEnv(t, 3)
	us := netstack.NewUDPSocket(env.c.Nodes[0].Stack)
	if err := us.Bind(env.c.ClusterIP, 27960); err != nil {
		t.Fatal(err)
	}
	env.p.FDs.Install(&proc.UDPFile{Sock: us})
	lst := netstack.NewTCPSocket(env.c.Nodes[0].Stack)
	if err := lst.Listen(env.c.ClusterIP, 7100); err != nil {
		t.Fatal(err)
	}
	env.p.FDs.Install(&proc.TCPFile{Sock: lst})
	keys := CaptureKeys(env.p)
	if len(keys) != 6 { // 3 clients + 1 db + 1 listener + 1 udp
		t.Fatalf("keys = %d", len(keys))
	}
	exact, wildcardTCP, wildcardUDP := 0, 0, 0
	for _, k := range keys {
		switch {
		case k.Proto == netsim.ProtoTCP && k.RemoteIP != 0:
			exact++
		case k.Proto == netsim.ProtoTCP:
			wildcardTCP++
		case k.Proto == netsim.ProtoUDP:
			wildcardUDP++
		}
	}
	if exact != 4 || wildcardTCP != 1 || wildcardUDP != 1 {
		t.Fatalf("key mix: exact=%d wtcp=%d wudp=%d", exact, wildcardTCP, wildcardUDP)
	}
}

func TestTrackerFirstRoundShipsEverything(t *testing.T) {
	env := newEnv(t, 4)
	tr := NewTracker()
	d := tr.Delta(env.p, false)
	if len(d.Socks) != 5 {
		t.Fatalf("first round socks = %d, want 5", len(d.Socks))
	}
	for _, su := range d.Socks {
		if len(su.Sections) != 5 {
			t.Fatalf("first round fd %d sections = %d, want all 5", su.FD, len(su.Sections))
		}
	}
}

func TestTrackerQuiescentDeltaEmpty(t *testing.T) {
	env := newEnv(t, 4)
	tr := NewTracker()
	tr.Delta(env.p, false)
	d := tr.Delta(env.p, false)
	if !d.Empty() {
		t.Fatalf("quiescent delta has %d socks", len(d.Socks))
	}
}

func TestTrackerDetectsTrafficOnOneSocket(t *testing.T) {
	env := newEnv(t, 4)
	tr := NewTracker()
	tr.Delta(env.p, false)
	// Traffic on exactly one client connection.
	env.clients[2].Send([]byte("move north"))
	env.c.Sched.RunFor(100 * time.Millisecond)
	d := tr.Delta(env.p, false)
	if len(d.Socks) != 1 {
		t.Fatalf("delta socks = %d, want 1", len(d.Socks))
	}
	// Changed sections: core (rcv_nxt, timestamps) and receive queue.
	ids := map[netstack.SectionID]bool{}
	for _, sec := range d.Socks[0].Sections {
		ids[sec.ID] = true
	}
	if !ids[netstack.SecCore] || !ids[netstack.SecReceiveQueue] {
		t.Fatalf("changed sections = %v", ids)
	}
	if ids[netstack.SecIdentity] {
		t.Fatal("identity section should never change")
	}
}

func TestTrackerSkipsLockedSockets(t *testing.T) {
	env := newEnv(t, 2)
	tr := NewTracker()
	tcp, _ := env.p.Sockets()
	tcp[0].Lock()
	d := tr.Delta(env.p, false)
	if len(d.Socks) != 2 { // 1 unlocked client + db; locked one skipped
		t.Fatalf("socks = %d, want 2", len(d.Socks))
	}
	if tr.SkippedLocked != 1 {
		t.Fatalf("SkippedLocked = %d", tr.SkippedLocked)
	}
	// Freeze round inspects everything (signal released the lock first in
	// the real flow; here we unlock manually).
	tcp[0].Unlock()
	d2 := tr.Delta(env.p, true)
	if len(d2.Socks) != 1 {
		t.Fatalf("freeze delta socks = %d, want the previously skipped one", len(d2.Socks))
	}
}

func TestIncrementalBeatsFullOnIdleConnections(t *testing.T) {
	env := newEnv(t, 64)
	tr := NewTracker()
	tr.Delta(env.p, false) // precopy round ships the bulk
	// Light traffic on two connections.
	env.clients[0].Send([]byte("a"))
	env.clients[1].Send([]byte("b"))
	env.c.Sched.RunFor(50 * time.Millisecond)
	inc := tr.Delta(env.p, true)
	full := FullDelta(env.p)
	if len(inc.Wire()) >= len(full.Wire())/10 {
		t.Fatalf("incremental freeze bytes %d not ≪ full %d", len(inc.Wire()), len(full.Wire()))
	}
	if len(full.Socks) != 65 {
		t.Fatalf("full delta socks = %d", len(full.Socks))
	}
}

func TestStoreAccumulatesAndRestores(t *testing.T) {
	env := newEnv(t, 8)
	n2 := env.c.Nodes[1]
	// Generate state: client 3 sends data that stays unread in the queue.
	env.clients[3].Send([]byte("queued-data"))
	env.c.Sched.RunFor(100 * time.Millisecond)

	tr := NewTracker()
	d1 := tr.Delta(env.p, false)
	store := NewStore()
	dec1, err := DecodeSockDelta(d1.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Apply(dec1); err != nil {
		t.Fatal(err)
	}
	// More traffic, then freeze.
	env.clients[5].Send([]byte("late"))
	env.c.Sched.RunFor(50 * time.Millisecond)
	DisableAll(env.p)
	dec2, err := DecodeSockDelta(tr.Delta(env.p, true).Encode())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Apply(dec2); err != nil {
		t.Fatal(err)
	}
	if store.TCPCount() != 9 {
		t.Fatalf("store tcp = %d", store.TCPCount())
	}

	// Restore on node2 into a fresh process.
	q := n2.Spawn("zone", 1)
	opt := RestoreOptions{LocalNet: proc.LocalNet, LocalNetBits: 24,
		NewLocalIP: n2.LocalIP}
	tcpOut, _, err := store.RestoreAll(n2.Stack, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(tcpOut) != 9 {
		t.Fatalf("restored %d sockets", len(tcpOut))
	}
	// The queued data survived.
	foundQueued := false
	for _, sk := range tcpOut {
		if string(sk.Recv()) == "queued-data" {
			foundQueued = true
		}
	}
	if !foundQueued {
		t.Fatal("receive queue lost")
	}
	// The in-cluster connection's local IP was rewritten; client
	// connections kept the cluster IP.
	rewritten, kept := 0, 0
	for _, sk := range tcpOut {
		switch sk.LocalIP {
		case n2.LocalIP:
			rewritten++
		case env.c.ClusterIP:
			kept++
		}
	}
	if rewritten != 1 || kept != 8 {
		t.Fatalf("rewritten=%d kept=%d", rewritten, kept)
	}
}

func TestRestoreOptionsInCluster(t *testing.T) {
	opt := RestoreOptions{LocalNet: proc.LocalNet, LocalNetBits: 24}
	if !opt.InCluster(netsim.MakeAddr(192, 168, 1, 55)) {
		t.Fatal("in-cluster address not recognized")
	}
	if opt.InCluster(netsim.MakeAddr(198, 51, 100, 1)) {
		t.Fatal("external address claimed in-cluster")
	}
	if (RestoreOptions{}).InCluster(netsim.MakeAddr(192, 168, 1, 55)) {
		t.Fatal("zero options matched")
	}
}

func TestDisableAllCounts(t *testing.T) {
	env := newEnv(t, 3)
	us := netstack.NewUDPSocket(env.c.Nodes[0].Stack)
	if err := us.Bind(env.c.ClusterIP, 27960); err != nil {
		t.Fatal(err)
	}
	env.p.FDs.Install(&proc.UDPFile{Sock: us})
	ntcp, nudp := DisableAll(env.p)
	if ntcp != 4 || nudp != 1 {
		t.Fatalf("disable counts = %d,%d", ntcp, nudp)
	}
	tcp, udp := env.p.Sockets()
	for _, sk := range tcp {
		if !sk.Unhashed() {
			t.Fatal("tcp socket still hashed")
		}
	}
	for _, u := range udp {
		if !u.Unhashed() {
			t.Fatal("udp socket still hashed")
		}
	}
}

func TestStoreRejectsGarbage(t *testing.T) {
	store := NewStore()
	if err := store.Apply(&SockDelta{Socks: []SockUpdate{{FD: 1, Kind: 'X'}}}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if err := store.Apply(&SockDelta{Socks: []SockUpdate{{FD: 1, Kind: 'U', UDPData: []byte{1}}}}); err == nil {
		t.Fatal("corrupt udp snapshot accepted")
	}
}

func TestFullDeltaSizeScalesLinearly(t *testing.T) {
	// The Fig 5c premise: full socket state is ~KernelSockImageBytes per
	// connection, so bytes grow linearly with connection count.
	sizes := map[int]int{}
	for _, n := range []int{8, 16, 32} {
		env := newEnv(t, n)
		sizes[n] = len(FullDelta(env.p).Wire())
	}
	perConn8 := float64(sizes[8]) / 9
	perConn32 := float64(sizes[32]) / 33
	ratio := perConn32 / perConn8
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("per-connection cost not stable: %v vs %v", perConn8, perConn32)
	}
	if perConn8 < float64(netstack.KernelSockImageBytes) {
		t.Fatalf("per-connection bytes %v below kernel image size", perConn8)
	}
}

// TestStoreApplyIsAllOrNothing: a delta whose third socket carries a
// truncated queue section folds nothing — not the two sockets before it,
// and not the sections of a socket the store already holds.
func TestStoreApplyIsAllOrNothing(t *testing.T) {
	env := newEnv(t, 4)
	env.clients[1].Send([]byte("unread"))
	env.c.Sched.RunFor(50 * time.Millisecond)
	store := NewStore()
	if err := store.ApplyEncoded(FullDelta(env.p).Encode()); err != nil {
		t.Fatal(err)
	}
	before := map[int][]byte{}
	for fd, snap := range store.tcp {
		before[fd] = snap.Encode()
	}
	applied := store.BytesApplied

	d := FullDelta(env.p)
	for i := range d.Socks[:2] {
		for j := range d.Socks[i].Sections {
			d.Socks[i].Sections[j].Data = bytes.Repeat([]byte{0x5A}, len(d.Socks[i].Sections[j].Data))
		}
		d.Socks[i].Sections = d.Socks[i].Sections[:1] // identity only: well formed, new content
	}
	third := d.Socks[2].Sections
	for j := range third {
		if third[j].ID == netstack.SecReceiveQueue {
			third[j].Data = third[j].Data[:len(third[j].Data)-1]
		}
	}
	d.Socks = append(d.Socks, SockUpdate{FD: 99, Kind: 'T'}) // a socket the store does not hold yet
	if err := store.ApplyEncoded(d.Encode()); err == nil {
		t.Fatal("truncated receive queue accepted")
	}
	if store.BytesApplied != applied || store.TCPCount() != len(before) {
		t.Fatalf("after a rejected delta: %d bytes applied (was %d), %d sockets (was %d)",
			store.BytesApplied, applied, store.TCPCount(), len(before))
	}
	for fd, snap := range store.tcp {
		if !bytes.Equal(snap.Encode(), before[fd]) {
			t.Fatalf("fd %d changed by a rejected delta", fd)
		}
	}
}

// TestTrackerLendsUntilNextCall: a round's bytes are the tracker's, and
// the package's tests run with the tripwire on — a section kept past
// the next Delta reads 0xDB, while an encoded copy is the caller's.
func TestTrackerLendsUntilNextCall(t *testing.T) {
	env := newEnv(t, 2)
	tr := NewTracker()
	d := tr.Delta(env.p, false)
	kept := d.Socks[0].Sections[0].Data
	enc := d.Encode()
	if bytes.Count(kept, []byte{0xDB}) == len(kept) {
		t.Fatal("a fresh section is already poisoned")
	}
	if !tr.Delta(env.p, false).Empty() {
		t.Fatal("quiescent round shipped sockets")
	}
	if bytes.Count(kept, []byte{0xDB}) != len(kept) {
		t.Fatal("a section kept past the next Delta was not poisoned")
	}
	got, err := DecodeSockDelta(enc)
	if err != nil || len(got.Socks) != 3 || bytes.Contains(got.Socks[0].Sections[1].Data, bytes.Repeat([]byte{0xDB}, 8)) {
		t.Fatalf("the encoded copy did not survive the next round: %v", err)
	}
}

// TestHashBytesIsFNV1a: the inlined hash gives hash/fnv's 64-bit FNV-1a
// value for every length from empty to past a few words, so no tracker
// sees a section change it did not see before.
func TestHashBytesIsFNV1a(t *testing.T) {
	b := make([]byte, 300)
	for i := range b {
		b[i] = byte(i*131 + 7)
	}
	for n := 0; n <= len(b); n++ {
		h := fnv.New64a()
		h.Write(b[:n])
		if got, want := hashBytes(b[:n]), h.Sum64(); got != want {
			t.Fatalf("hashBytes of %d bytes = %#x, hash/fnv says %#x", n, got, want)
		}
	}
}
