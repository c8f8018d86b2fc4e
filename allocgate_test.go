// Alloc-regression gates for the simulator's hot paths. These are
// ordinary tests (they run in CI's test and bench-smoke jobs) so an
// allocation slipped into the event loop fails the build instead of
// silently eroding the numbers the benchmark reports. Every gate
// compares against constants recorded next to it.
package dvemig

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"dvemig/internal/ckpt"
	"dvemig/internal/ctlplane"
	"dvemig/internal/dve"
	"dvemig/internal/eval"
	"dvemig/internal/lb"
	"dvemig/internal/migration"
	"dvemig/internal/netsim"
	"dvemig/internal/netstack"
	"dvemig/internal/obs"
	"dvemig/internal/proc"
	"dvemig/internal/simprof"
	"dvemig/internal/simtime"
	"dvemig/internal/sockmig"
	"dvemig/internal/wire/wiretest"
)

// ringState carries the re-arm parameters behind one pointer: boxing a
// bare Duration into the trampoline's any-slot would itself allocate,
// which is exactly what this gate exists to catch.
type ringState struct {
	s *simtime.Scheduler
	d simtime.Duration
}

// ringArm is the closure-free self-rescheduling event the alloc gate
// fires: the scheduler's AfterCall trampoline carries the state pointer
// through its any-slot, so re-arming allocates nothing once the event
// free list is warm.
func ringArm(a0, _ any) {
	r := a0.(*ringState)
	r.s.AfterCall(r.d, "gate.ring", ringArm, r, nil)
}

// TestAllocGateEventLoop pins the scheduler's fire/re-arm cycle — the
// dominant pattern of every simulation — at zero allocations per fired
// event.
func TestAllocGateEventLoop(t *testing.T) {
	s := simtime.NewScheduler()
	for i := 0; i < 64; i++ {
		r := &ringState{s: s, d: simtime.Duration(i+1) * simtime.Duration(time.Microsecond)}
		s.AfterCall(r.d, "gate.ring", ringArm, r, nil)
	}
	s.RunFor(simtime.Duration(time.Millisecond)) // warm the free list
	per := testing.AllocsPerRun(10, func() {
		s.RunFor(64 * simtime.Duration(time.Microsecond))
	})
	if per > 0 {
		t.Fatalf("event-loop step allocates %.1f/run, want 0", per)
	}
}

// TestAllocGateTimerChurn pins the arm/cancel pattern the TCP
// retransmission timer generates on every ACK at zero allocations.
func TestAllocGateTimerChurn(t *testing.T) {
	s := simtime.NewScheduler()
	for i := 0; i < 1024; i++ {
		s.After(simtime.Duration(i+1)*simtime.Duration(time.Hour), "gate.backdrop", func() {})
	}
	ev := s.After(simtime.Duration(time.Second), "gate.rto", func() {})
	s.Cancel(ev) // warm the free list
	per := testing.AllocsPerRun(100, func() {
		e := s.After(simtime.Duration(time.Second), "gate.rto", func() {})
		s.Cancel(e)
	})
	if per > 0 {
		t.Fatalf("timer arm+cancel allocates %.1f/run, want 0", per)
	}
}

// TestAllocGateTicker pins the periodic-loop re-arm (process ticks,
// client command loops) at zero allocations per tick: one ticker whose
// re-arm sifts through a deep queue, and 100 co-phased tickers of one
// period — the DVE run's zone servers — whose re-arms append to the
// scheduler's shared lane for that period.
func TestAllocGateTicker(t *testing.T) {
	s := simtime.NewScheduler()
	for i := 0; i < 1024; i++ { // the re-arm sifts through a deep queue
		s.After(simtime.Duration(i+1)*simtime.Duration(time.Hour), "gate.backdrop", func() {})
	}
	var ticks int
	tk := simtime.NewTicker(s, simtime.Duration(time.Millisecond), "gate.tick", func() { ticks++ })
	tk.Start()
	defer tk.Stop()
	s.RunFor(simtime.Duration(10 * time.Millisecond)) // warm up
	per := testing.AllocsPerRun(10, func() {
		s.RunFor(simtime.Duration(10 * time.Millisecond))
	})
	if per > 0 {
		t.Fatalf("ticker re-arm allocates %.1f per 10 ticks, want 0", per)
	}

	for i := 0; i < 100; i++ {
		zone := simtime.NewTicker(s, simtime.Duration(50*time.Millisecond), "gate.zone", func() { ticks++ })
		zone.Start()
		defer zone.Stop()
	}
	s.RunFor(simtime.Duration(100 * time.Millisecond)) // warm the free list
	before := ticks
	per = testing.AllocsPerRun(10, func() {
		s.RunFor(simtime.Duration(50 * time.Millisecond))
	})
	if per > 0 {
		t.Fatalf("100 co-phased tickers allocate %.1f per 50 ms round, want 0", per)
	}
	if ticks-before < 11*150 {
		t.Fatalf("%d ticks in 11 rounds, want at least %d", ticks-before, 11*150)
	}
}

// TestAllocGateZoneTick pins the DVE's 20 Hz zone-server loop — 1.8 M
// of the 2.5 M events of a paper-scale run — at (almost) no allocation
// per tick: two servers linked as grid neighbors plus the database, so
// the every-10th "SET zone… pop…;" and "SYNC z… t…;" ticks, their
// segments, the replies and the ACKs are all inside the fence. The loop
// formats into one buffer per server and reuses its neighbor list.
func TestAllocGateZoneTick(t *testing.T) {
	c := proc.NewCluster(simtime.NewScheduler(), 2)
	if _, err := dve.StartDBServer(c.Nodes[1]); err != nil {
		t.Fatal(err)
	}
	cfg := dve.DefaultZoneConfig()
	spawn := func(n *proc.Node, z dve.ZoneID) *proc.Process {
		p, err := dve.SpawnZoneServer(n, z, c.ClusterIP, c.Nodes[1].LocalIP, cfg, func(dve.ZoneID) int { return 100 })
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := spawn(c.Nodes[0], 0), spawn(c.Nodes[1], 1)
	lst := netstack.NewTCPSocket(c.Nodes[1].Stack)
	if err := lst.Listen(c.Nodes[1].LocalIP, dve.NeighborBase+1); err != nil {
		t.Fatal(err)
	}
	lst.OnAccept = func(ch *netstack.TCPSocket) { b.FDs.Install(&proc.TCPFile{Sock: ch}) }
	link := netstack.NewTCPSocket(c.Nodes[0].Stack)
	if err := link.Connect(c.Nodes[1].LocalIP, dve.NeighborBase+1); err != nil {
		t.Fatal(err)
	}
	a.FDs.Install(&proc.TCPFile{Sock: link})

	const ticks = 200 // per server
	// Warm up: handshakes, packet pools, send buffers, event free list.
	c.Sched.RunFor(ticks * cfg.LoopPeriod)
	synced := link.BytesOut
	per := testing.AllocsPerRun(1, func() {
		c.Sched.RunFor(ticks * cfg.LoopPeriod)
	}) / (2 * ticks)
	if link.BytesOut == synced {
		t.Fatal("no SYNC traffic crossed the neighbor link")
	}
	if per > 0.05 {
		t.Fatalf("zone-server tick allocates %.3f/tick over %d ticks, want <= 0.05", per, 2*ticks)
	}
}

// TestAllocGatePacketPath pins the steady-state packet path at zero
// allocations per message: 64 established flows from an external host
// into a 3-node broadcast cluster, each side sending a 256-byte message
// per round and discarding what it receives. Every layer a game update
// crosses is inside the fence — Send into a reused send buffer, pooled
// segment and payload, header-only clones on the wire and in the router
// fan-out, the non-owner nodes' drops, ACKs, Discard.
func TestAllocGatePacketPath(t *testing.T) {
	const flows = 64
	s := simtime.NewScheduler()
	clusterIP := netsim.MakeAddr(203, 0, 113, 10)
	r := netsim.NewBroadcastRouter(s, clusterIP)
	var nodes []*netstack.Stack
	for i := 0; i < 3; i++ {
		st := netstack.NewStack(s, "srv", uint32(1000*(i+1)))
		nic := r.AttachServer("pub", netsim.GigabitEthernet)
		st.AttachNIC(nic, clusterIP)
		st.AddRoute(0, 0, nic, clusterIP)
		nodes = append(nodes, st)
	}
	lst := netstack.NewTCPSocket(nodes[0])
	if err := lst.Listen(clusterIP, 7000); err != nil {
		t.Fatal(err)
	}
	var socks []*netstack.TCPSocket
	discardOnRead := func(sk *netstack.TCPSocket) {
		sk.OnReadable = func() { sk.Discard() }
		socks = append(socks, sk)
	}
	lst.OnAccept = discardOnRead
	host := netstack.NewStack(s, "players", 77)
	hostAddr := netsim.MakeAddr(198, 51, 100, 1)
	hnic := r.AttachExternal("players", hostAddr, netsim.GigabitEthernet)
	host.AttachNIC(hnic, hostAddr)
	host.AddRoute(0, 0, hnic, hostAddr)
	for i := 0; i < flows; i++ {
		cli := netstack.NewTCPSocket(host)
		if err := cli.Connect(clusterIP, 7000); err != nil {
			t.Fatal(err)
		}
		discardOnRead(cli)
	}
	s.RunFor(simtime.Duration(time.Second))
	if len(socks) != 2*flows {
		t.Fatalf("%d of %d sockets established", len(socks), 2*flows)
	}
	msg := make([]byte, 256)
	round := func() {
		for _, sk := range socks {
			if err := sk.Send(msg); err != nil {
				t.Fatal(err)
			}
		}
		s.RunFor(simtime.Duration(10 * time.Millisecond))
	}
	for i := 0; i < 20; i++ {
		round() // warm the pools, the queues and the send buffers
	}
	before := nodes[1].Stats.NoSocketDrops
	per := testing.AllocsPerRun(10, round)
	if per > 0 {
		t.Fatalf("packet path allocates %.1f per round of %d messages, want 0", per, 2*flows)
	}
	if socks[0].BytesIn == 0 || nodes[1].Stats.NoSocketDrops == before {
		t.Fatal("the measured rounds moved no traffic through the fan-out")
	}
}

// TestAllocGateCheckpointRound fences the checkpoint page path's
// ownership rule (DESIGN.md §10 "Page bytes"): page content is read once
// from the live page and written once into the destination page, and
// nothing in between allocates a copy of it. The delta itself is lent
// too — the tracker's own, its lists reusing their arrays — and the
// destination decodes its header into a stack value. So a warm tracker's
// round (dirty scan, lend, encode) allocates nothing whether 256 or 4096
// pages are dirty, and neither does a destination round that only
// rewrites resident pages. Before the delta was lent a source round
// allocated two objects (the delta and its page list) and a destination
// round one (the decoded header). A destination's first round into a
// fresh space allocates the frames, cut to the lines each record
// reaches (one line per page here), and the leaves: within 25% of
// checkpointFirstApplyBytes.
func TestAllocGateCheckpointRound(t *testing.T) {
	const pages = 4096
	src := proc.NewAddressSpace()
	heap := src.Mmap(pages*proc.PageSize, "rw-")
	dirty := func(n uint64) {
		for i := uint64(0); i < n; i++ {
			if err := src.Touch(heap.Start + i*proc.PageSize); err != nil {
				t.Fatal(err)
			}
		}
	}
	dirty(pages)
	tr := ckpt.NewTracker()
	enc := tr.Delta(src).EncodeInto(nil) // first round: everything, warming both scratches
	dst := proc.NewAddressSpace()
	if err := ckpt.ApplyEncodedDelta(dst, enc); err != nil {
		t.Fatal(err)
	}
	first := wiretest.AllocatedBytes(func() {
		if err := ckpt.ApplyEncodedDelta(proc.NewAddressSpace(), enc); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("first destination round: %d B (recorded %d, ceiling +25%%)", first, checkpointFirstApplyBytes)
	if ceiling := checkpointFirstApplyBytes * 1.25; float64(first) > ceiling {
		t.Errorf("a first destination round of %d one-line pages allocates %d bytes, exceeds recorded %d +25%% (%.0f)",
			pages, first, checkpointFirstApplyBytes, ceiling)
	}
	round := func(n uint64) (source, dest float64) {
		source = testing.AllocsPerRun(5, func() {
			dirty(n)
			enc = tr.Delta(src).EncodeInto(enc)
		})
		dest = testing.AllocsPerRun(5, func() {
			if err := ckpt.ApplyEncodedDelta(dst, enc); err != nil {
				t.Fatal(err)
			}
		})
		return source, dest
	}
	srcSmall, dstSmall := round(256)
	srcLarge, dstLarge := round(pages)
	if srcSmall != 0 || srcLarge != 0 {
		t.Fatalf("a warm tracker's round allocates %.0f objects at 256 dirty pages and %.0f at %d: want 0",
			srcSmall, srcLarge, pages)
	}
	if dstSmall != 0 || dstLarge != 0 {
		t.Fatalf("destination round rewriting resident pages allocates %.0f objects at 256 pages and %.0f at %d: want 0",
			dstSmall, dstLarge, pages)
	}
	if got, want := dst.ResidentBytes(), uint64(pages*proc.PageSize); got != want {
		t.Fatalf("destination holds %d resident bytes, want %d", got, want)
	}
}

// checkpointFirstApplyBytes is what TestAllocGateCheckpointRound's first
// destination round allocated when a page frame came to hold only the
// lines its stores reached; with 4 KiB frames it was 16.8 MB.
const checkpointFirstApplyBytes = 308896

// TestAllocGatePageFaults fences the page table's cost rule (DESIGN.md
// §10 "Page table and frames"): a resident page costs its frame — the
// lines stores reached, one here — one table slot and three bits. So
// stores to resident pages, clearing the dirty bits and counting them
// allocate nothing; faulting a large region in costs one allocation per
// eight frames plus the leaves and the ramp of chunk sizes, and in bytes
// at most the one-line frames + 25 % plus the leaves' slots, bitmaps and
// length bytes (with 4 KiB frames the bound was the frames + 2 %,
// 16.7 MB); and a small region pays for the pages it touched, not for a
// full leaf or a full chunk — the shape soak3's 1 500 eight-page service
// heaps bound.
func TestAllocGatePageFaults(t *testing.T) {
	const pages = 4096
	var as *proc.AddressSpace
	var heap *proc.VMA
	faultIn := func() {
		as = proc.NewAddressSpace()
		heap = as.Mmap(pages*proc.PageSize, "rw-")
		for i := uint64(0); i < pages; i++ {
			if err := as.Touch(heap.Start + i*proc.PageSize); err != nil {
				t.Fatal(err)
			}
		}
	}
	allocs, bytes := testing.AllocsPerRun(3, faultIn), wiretest.AllocatedBytes(faultIn)
	t.Logf("faulting %d pages in: %.0f allocations, %d bytes (%.4f of 4 KiB frames)", pages, allocs, bytes, float64(bytes)/(pages*proc.PageSize))
	if allocs > pages/8+64 {
		t.Errorf("faulting %d pages in took %.0f allocations, want at most %d (a chunk per 8 frames, the leaves, the ramp)", pages, allocs, pages/8+64)
	}
	if limit := uint64(pages*proc.LineSize*5/4 + pages/512*(512*8+3*512/8+512)); bytes > limit {
		t.Errorf("faulting %d pages in allocated %d bytes, want at most %d (one-line frames + 25%% and the leaves)", pages, bytes, limit)
	}

	one := []byte{1}
	as.ClearDirty()
	if n := testing.AllocsPerRun(10, func() {
		for i := uint64(0); i < pages; i += 7 {
			if as.Touch(heap.Start+i*proc.PageSize) != nil || as.Write(heap.Start+i*proc.PageSize+9, one) != nil {
				t.Fatal("store to a resident page failed")
			}
		}
		if heap.DirtyCount() != (pages+6)/7 {
			t.Fatalf("%d dirty pages, want %d", heap.DirtyCount(), (pages+6)/7)
		}
		as.ClearDirty()
	}); n != 0 {
		t.Errorf("stores to resident pages, a dirty count and ClearDirty allocate %.0f objects, want 0", n)
	}

	// An 8-page region with two pages touched: the map-backed space of
	// commit 8a35711 allocated 8 576 bytes for this.
	const smallRegionBytes = 8576
	bytes = wiretest.AllocatedBytes(func() {
		small := proc.NewAddressSpace()
		v := small.Mmap(8*proc.PageSize, "rw-")
		if small.Touch(v.Start+proc.PageSize) != nil || small.Touch(v.Start+5*proc.PageSize) != nil {
			t.Fatal("touch failed")
		}
	})
	if bytes > smallRegionBytes {
		t.Errorf("an 8-page region with two pages touched allocated %d bytes, want at most %d", bytes, smallRegionBytes)
	}
}

// sockScanFixture is a zone process holding a listener and conns
// accepted connections from external players, whose client ends it
// returns; the connections are established and idle.
func sockScanFixture(t *testing.T, conns int) (*proc.Cluster, *proc.Process, []*netstack.TCPSocket) {
	t.Helper()
	c := proc.NewCluster(simtime.NewScheduler(), 1)
	n := c.Nodes[0]
	p := n.Spawn("zone", 1)
	lst := netstack.NewTCPSocket(n.Stack)
	if err := lst.Listen(c.ClusterIP, 7000); err != nil {
		t.Fatal(err)
	}
	lst.OnAccept = func(ch *netstack.TCPSocket) { p.FDs.Install(&proc.TCPFile{Sock: ch}) }
	p.FDs.Install(&proc.TCPFile{Sock: lst})
	host := c.NewExternalHost("players")
	clients := make([]*netstack.TCPSocket, conns)
	for i := range clients {
		clients[i] = netstack.NewTCPSocket(host)
		if err := clients[i].Connect(c.ClusterIP, 7000); err != nil {
			t.Fatal(err)
		}
	}
	c.Sched.RunFor(simtime.Duration(time.Second))
	return c, p, clients
}

// busySockRound gives one in eight connections fresh unread data: the
// server ends drop what the last round left, the clients send 256 bytes
// each, and the segments land.
func busySockRound(t *testing.T, c *proc.Cluster, p *proc.Process, clients []*netstack.TCPSocket) {
	t.Helper()
	tcp, _ := p.Sockets()
	for _, sk := range tcp {
		sk.Discard()
	}
	for i := 0; i < len(clients); i += 8 {
		if err := clients[i].Send(make([]byte, 256)); err != nil {
			t.Fatal(err)
		}
	}
	c.Sched.RunFor(simtime.Duration(10 * time.Millisecond))
}

// mallocs is how many heap objects one call of fn allocates.
func mallocs(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestAllocGateSockScan fences the precopy socket scan: one reused
// snapshot and hash buffer serve every socket, and the delta is lent out
// of the tracker's own arena and arrays, so a round over 64 quiescent
// connections (plus a listener) allocates nothing, and neither does a
// round in which one connection in eight received data, once the
// tracker is warm.
func TestAllocGateSockScan(t *testing.T) {
	const conns = 64
	c, p, clients := sockScanFixture(t, conns)
	tr := sockmig.NewTracker()
	if first := tr.Delta(p, false); len(first.Socks) != conns+1 {
		t.Fatalf("first round shipped %d sockets, want %d", len(first.Socks), conns+1)
	}
	per := testing.AllocsPerRun(10, func() {
		if d := tr.Delta(p, false); !d.Empty() {
			t.Fatalf("quiescent round shipped %d sockets", len(d.Socks))
		}
	})
	if per != 0 {
		t.Fatalf("quiescent scan of %d sockets allocates %.0f objects per round, want 0", conns+1, per)
	}

	for round := 0; round < 5; round++ {
		busySockRound(t, c, p, clients)
		var d *sockmig.SockDelta
		n := mallocs(func() { d = tr.Delta(p, false) })
		if len(d.Socks) != conns/8 {
			t.Fatalf("busy round %d shipped %d sockets, want %d", round, len(d.Socks), conns/8)
		}
		if round >= 2 && n != 0 { // the first busy rounds grow the arrays
			t.Fatalf("busy round %d (%d of %d sockets changed) allocated %d objects, want 0",
				round, conns/8, conns+1, n)
		}
	}
}

// TestAllocGateSockApply fences the destination's half: a store folds
// an encoded round into the snapshots it already holds, decoding into
// its own reused delta, and copies nothing it does not keep — applying a
// busy round to a warm store allocates nothing.
func TestAllocGateSockApply(t *testing.T) {
	const conns = 64
	c, p, clients := sockScanFixture(t, conns)
	tr := sockmig.NewTracker()
	store := sockmig.NewStore()
	if err := store.ApplyEncoded(tr.Delta(p, false).Encode()); err != nil {
		t.Fatal(err)
	}
	busySockRound(t, c, p, clients)
	busy := tr.Delta(p, false).Encode()
	if err := store.ApplyEncoded(busy); err != nil {
		t.Fatal(err)
	}
	per := testing.AllocsPerRun(10, func() {
		if err := store.ApplyEncoded(busy); err != nil {
			t.Fatal(err)
		}
	})
	if per != 0 || store.TCPCount() != conns+1 {
		t.Fatalf("applying a busy round to a warm store allocates %.0f objects (want 0); store holds %d sockets",
			per, store.TCPCount())
	}
}

// migrationEngine* are what one full 8-connection live migration
// allocated when the Fig 5b harness came to stop once every client byte
// sent before the migration ended was acknowledged (1685 objects and
// 3345161 bytes when the page table landed, 1623 and 3324736 when TCP
// Send began segmenting out of the caller's slice, 897 and 3224384 when
// the socket delta came to be lent out of the tracker's arena, 850 and
// 3215184 with the harness still running 30 simulated seconds past the
// migration, 801 and 2496608 before a page frame came to hold only the
// lines its stores reached, 790 and 522920 before migd frames and memory
// deltas came to reserve their final size, 764 and 402304 before the
// checkpoint burst came to be buffered once on each side of the wire,
// 763 and 369520 before a finished cell came to hand its packets to the
// next one); the gate allows 25% over each.
const (
	migrationEngineAllocs = 667
	migrationEngineBytes  = 291944
)

// TestAllocGateMigrationEngine is the bench-smoke regression fence: a
// full 8-connection live migration must not allocate more than 25%
// over the recorded objects or bytes.
func TestAllocGateMigrationEngine(t *testing.T) {
	fc := eval.DefaultFreezeConfig(sockmig.IncrementalCollective, 8)
	fc.Repeats = 1
	run := func() {
		if _, err := eval.RunFreezePoint(fc); err != nil {
			t.Fatal(err)
		}
	}
	allocs, bytes := testing.AllocsPerRun(3, run), float64(wiretest.AllocatedBytes(run)) // the first warms the pools
	t.Logf("migration engine: %.0f allocs, %.0f B per migration (recorded %d, %d; ceilings +25%%)",
		allocs, bytes, migrationEngineAllocs, migrationEngineBytes)
	if ceiling := migrationEngineAllocs * 1.25; allocs > ceiling {
		t.Errorf("a migration allocates %.0f objects, exceeds recorded %d +25%% headroom (%.0f)",
			allocs, migrationEngineAllocs, ceiling)
	}
	if ceiling := migrationEngineBytes * 1.25; bytes > ceiling {
		t.Errorf("a migration allocates %.0f bytes, exceeds recorded %d +25%% headroom (%.0f)",
			bytes, migrationEngineBytes, ceiling)
	}
}

// freezePointBytes are what one Fig 5b repeat allocated, warm, when a
// finished cell came to hand its packets to the next one (and the wire
// pool's classes came to be free lists a collection does not empty):
// the 64-connection point of the zone64 workload and the 2-connection,
// 128 MiB point of mem128m. The gate allows 10% over each. They read
// 816168 and 2846352 when the migd wire's large buffers came from the
// process-wide wire pool, 1496768 and 3412208 when each checkpoint burst
// came to be buffered once on each side of the wire, 1725512 and 4077872
// before that, and 2680136 and 5231472 before migd frames and memory
// deltas came to reserve their final size.
const (
	freezePointZoneBytes = 477760
	freezePointMemBytes  = 2547168
)

// TestAllocGateFreezePoint fences the transfer path's buffers: a receive
// buffer that regrows one segment at a time under a socket delta, a
// memory delta's encoding that grows by append instead of reserving its
// size, a send or reassembly buffer regrown frame by frame under a
// checkpoint burst, a socket delta copied out of the tracker's arena, or
// a cell whose packets are not handed to the next one, costs these
// points a large share of their bytes. It measures at the process's
// GOMAXPROCS with the collector on: the wire pool's free lists and the
// packet reserve are one list per class for every P and survive
// collections, so the warm run's buffers and packets are there for the
// measured one.
func TestAllocGateFreezePoint(t *testing.T) {
	for _, pt := range []struct {
		name     string
		conns    int
		memPages uint64
		recorded float64
	}{
		{"zone64", 64, 0, freezePointZoneBytes},
		{"mem128m", 2, 32768, freezePointMemBytes},
	} {
		fc := eval.DefaultFreezeConfig(sockmig.IncrementalCollective, pt.conns)
		fc.Repeats, fc.Workers = 1, 1
		if pt.memPages != 0 {
			fc.MemPages = pt.memPages
		}
		run := func() {
			if _, err := eval.RunFreezePoint(fc); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the pools
		bytes := float64(wiretest.AllocatedBytes(run))
		t.Logf("%s point: %.0f B per migration (recorded %.0f, ceiling +10%%)", pt.name, bytes, pt.recorded)
		if ceiling := pt.recorded * 1.10; bytes > ceiling && !wiretest.SkipAllocBound(t, pt.name+" point") {
			t.Errorf("a %s point allocates %.0f bytes, exceeds recorded %.0f +10%% (%.0f)", pt.name, bytes, pt.recorded, ceiling)
		}
	}
}

// soakCellCeilings bound what one declarative migration request may
// cost end to end through the control plane — submit, dispatch, the
// migd connection, the transfer itself, replication, park — measured on
// a healthy 200-request mixed-strategy cell and set 10% above what it
// measured last: 87 allocs and 7816 B per request once a finished cell
// came to hand its packets to the next one. Earlier readings: 88 and
// 8.8 KB once checkpoint bursts came to be buffered once on each side of
// the migd wire; 88 and 8.8 KB once migd frames and memory deltas came to
// reserve their final size; 232
// and 24.9 KB when the live-set / lent-frame / recycled-buffer work
// landed, from 287 and 42.6 KB; with per-stack packet lists and the scratch socket scan: 226 and 25.3 KB;
// with datagrams, frames and the process list lent, not copied: 134 and
// 19.5 KB; with Send segmenting out of the caller's slice and hybrid's
// re-shipped pages filling the frames they already hold: 127 and
// 14.6 KB; with socket deltas lent and idle capture filters one object:
// 123 and 14.5 KB; with closure-free migration steps, owner dispatch on
// the migd connection, the arriving process built once and the memory
// delta lent: 91 and 13.4 KB; and 88 and 9.1 KB just before the
// reservations.
const (
	soakCellAllocsPerRequest = 96
	soakCellBytesPerRequest  = 8598
)

// healthySoakConfig is the soak battery's fault-free cell alone: one
// seed, one worker, mixed strategies, the default 2% cancels.
func healthySoakConfig(requests int) eval.SoakConfig {
	cfg := eval.DefaultSoakConfig()
	cfg.Scenarios = slices.DeleteFunc(cfg.Scenarios, func(sc eval.SoakScenario) bool { return sc.Name != "healthy" })
	cfg.Seeds = []uint64{1}
	cfg.Requests = requests
	cfg.Workers = 1
	return cfg
}

// runSoakClean runs cfg's one cell and fails tb unless every request
// ended and no audit fired.
func runSoakClean(tb testing.TB, cfg eval.SoakConfig) {
	rep, err := eval.RunSoak(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if len(rep.Results) != 1 || len(rep.Results[0].Violations) != 0 {
		tb.Fatalf("soak cell did not run clean: %+v", rep.Results)
	}
}

// TestAllocGateSoakCell keeps a soak request costing what it moves: a
// copy or a per-frame allocation creeping back into the request path
// shows here before it shows in the benchmark.
func TestAllocGateSoakCell(t *testing.T) {
	cfg := healthySoakConfig(200)
	run := func() { runSoakClean(t, cfg) }
	run() // warm the packet and event pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / float64(cfg.Requests)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(cfg.Requests)
	t.Logf("soak cell: %.0f allocs, %.0f B per request (ceilings %d, %d)",
		allocs, bytes, soakCellAllocsPerRequest, soakCellBytesPerRequest)
	if allocs > soakCellAllocsPerRequest && !wiretest.SkipAllocBound(t, "soak request objects") {
		t.Errorf("soak request allocates %.0f objects, ceiling %d", allocs, soakCellAllocsPerRequest)
	}
	if bytes > soakCellBytesPerRequest && !wiretest.SkipAllocBound(t, "soak request bytes") {
		t.Errorf("soak request allocates %.0f bytes, ceiling %d", bytes, soakCellBytesPerRequest)
	}
}

// ctlRequestAllocs is what one declarative migration costs in objects,
// setup excluded, as recorded when the migration's scheduled steps
// became functions plus arguments, the migd connection came to dispatch
// to its owner, the arriving process to be built once, empty socket maps
// to cost nothing and the memory delta to be lent; the gate allows 5%
// over it. It read 108.1 when socket deltas came to be lent and an idle
// capture filter stopped making its dedup map, 112.1 when the request
// path stopped copying what it could borrow (queued datagrams, frames
// appended into their sender's buffer, the process list lent), 186.4 at
// the parent of that change, and 119.4 before the migd connections' send
// buffers stopped growing from nil.
const ctlRequestAllocs = 75.3

// TestAllocGateCtlRequest pins the marginal request: in one warm cell —
// primary and standby controller, three workers each with a migrator, a
// conductor and an agent — fifty migrations, strategies in rotation, are
// submitted one at a time and run to Succeeded. Where TestAllocGateSoakCell
// bounds a whole cell with its construction, cancels and retries, this
// counts only what a healthy request allocates on its way through submit,
// replicate, dispatch, the migd connection, the transfer and the park.
func TestAllocGateCtlRequest(t *testing.T) {
	const workers, services, warmup, measured = 3, 9, 12, 50
	sched := simtime.NewScheduler()
	cluster := proc.NewCluster(sched, workers+2)
	mcfg := eval.DefaultSoakConfig().MigCfg
	lcfg := lb.DefaultConfig()
	lcfg.ImbalanceThreshold = 10 // conductors heartbeat, the controller alone migrates
	for _, n := range cluster.Nodes[:workers] {
		m, err := migration.NewMigrator(n, mcfg)
		if err != nil {
			t.Fatal(err)
		}
		cd, err := lb.NewConductor(n, m, lcfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ctlplane.NewAgent(n, m, cd); err != nil {
			t.Fatal(err)
		}
	}
	ctlNode, sbNode := cluster.Nodes[workers], cluster.Nodes[workers+1]
	ctl, err := ctlplane.NewController(ctlNode, sbNode.LocalIP, true, ctlplane.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	standby, err := ctlplane.NewController(sbNode, ctlNode.LocalIP, false, ctlplane.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	home := make([]int, services) // service → worker it runs on
	for i := range home {
		home[i] = i % workers
		p := cluster.Nodes[home[i]].Spawn(fmt.Sprintf("svc%02d", i), 1)
		v := p.AS.Mmap(8*proc.PageSize, "rw-")
		p.Tick = func(self *proc.Process) { self.AS.Touch(v.Start + uint64(i%8)*proc.PageSize) }
		cluster.Nodes[home[i]].StartLoop(p, 200*time.Millisecond)
	}
	sched.RunFor(2 * time.Second) // conductors discover each other
	strategies := migration.StrategyNames()
	request := func(i int) {
		svc := i % services
		src, dst := cluster.Nodes[home[svc]], cluster.Nodes[(home[svc]+1)%workers]
		name := fmt.Sprintf("svc%02d", svc)
		var p *proc.Process
		for _, q := range src.Processes() {
			if q.Name == name {
				p = q
			}
		}
		if p == nil {
			t.Fatalf("request %d: %s is not on %s", i, name, src.Name)
		}
		obj, err := ctl.Submit(ctlplane.Spec{PID: p.PID, Name: name, Source: src.LocalIP, Dest: dst.LocalIP,
			Strategy: strategies[i%len(strategies)], MaxRetries: -1})
		if err != nil {
			t.Fatal(err)
		}
		for limit := sched.Now() + 20*time.Second; !obj.Terminal() && sched.Now() < limit; {
			sched.RunFor(100 * time.Millisecond)
		}
		if obj.Status.State != ctlplane.Succeeded {
			t.Fatalf("request %d (%s): %s %v", i, name, obj.Status.State, obj.Status.Cause)
		}
		home[svc] = (home[svc] + 1) % workers
	}
	for i := 0; i < warmup; i++ {
		request(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := warmup; i < warmup+measured; i++ {
		request(i)
	}
	runtime.ReadMemStats(&after)
	if got := standby.Get(ctl.Objects()[warmup+measured-1].Spec.ID); got == nil || got.Status.State != ctlplane.Succeeded {
		t.Fatalf("the standby does not hold the last request as Succeeded: %+v", got)
	}
	allocs := float64(after.Mallocs-before.Mallocs) / measured
	t.Logf("ctl request: %.1f allocs per request (recorded %.1f, ceiling +5%%)", allocs, ctlRequestAllocs)
	if allocs > ctlRequestAllocs*1.05 {
		t.Errorf("a request allocates %.1f objects, recorded %.1f +5%%", allocs, ctlRequestAllocs)
	}
}

// TestAllocGateSamplerDisabled pins the streaming-observability plane's
// disabled path at zero allocations: a nil *Sampler (the default when
// no cell opts into sampling) must make every method a free no-op, so
// the sampler's existence costs unobserved simulations nothing.
func TestAllocGateSamplerDisabled(t *testing.T) {
	var s *obs.Sampler
	var ts *obs.TimeSeries
	var e *obs.SLOEngine
	var w obs.SampleWindow
	per := testing.AllocsPerRun(100, func() {
		s.Start()
		s.Flush()
		s.Stop()
		s.OnSample(nil)
		s.AttachSLO(nil)
		_ = s.Store()
		_ = s.Windows()
		ts.Append(0, 0)
		_ = ts.Len()
		e.Observe(w)
		_ = e.Results()
	})
	if per > 0 {
		t.Fatalf("disabled sampler path allocates %.1f/run, want 0", per)
	}
}

// TestAllocGateSimprofDisabled pins the self-profiling plane's disabled
// path at zero allocations: a nil *Profiler (the default everywhere —
// no command flag, no config field set) hands out nil collectors whose
// every method must be a free no-op, so the scheduler's per-event
// Begin/End hook, the parallel runner's cell brackets and the migration
// engine's phase recording cost unprofiled runs nothing.
func TestAllocGateSimprofDisabled(t *testing.T) {
	var p *simprof.Profiler
	lp := p.Loop("cell")
	sp := p.Sweep("sweep", 4)
	sk := p.Skew("cell")
	if lp != nil || sp != nil || sk != nil {
		t.Fatal("nil profiler handed out non-nil collectors")
	}
	per := testing.AllocsPerRun(100, func() {
		t0 := lp.Begin()
		lp.End(t0, "netsim.deliver", 3)
		_ = lp.Events()
		sp.Begin(4, 2)
		sp.CellStart(0, 0)
		sp.CellEnd(0)
		sp.End()
		sk.Record("freeze", 1000, sk.NowNs())
	})
	if per > 0 {
		t.Fatalf("disabled simprof path allocates %.1f/run, want 0", per)
	}
}
