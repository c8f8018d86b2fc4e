package dve

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"dvemig/internal/netstack"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
)

func TestZoneGeometry(t *testing.T) {
	if ZoneAt(3, 7) != ZoneID(73) {
		t.Fatal("row-major indexing wrong")
	}
	x, y := ZoneID(73).XY()
	if x != 3 || y != 7 {
		t.Fatal("XY wrong")
	}
	// Node assignment: two rows per node.
	if ZoneAt(0, 0).HomeNode() != 0 || ZoneAt(9, 1).HomeNode() != 0 {
		t.Fatal("node1 rows wrong")
	}
	if ZoneAt(5, 4).HomeNode() != 2 || ZoneAt(5, 5).HomeNode() != 2 {
		t.Fatal("node3 rows wrong")
	}
	if ZoneAt(9, 9).HomeNode() != 4 {
		t.Fatal("node5 rows wrong")
	}
}

func TestClientStep(t *testing.T) {
	c := &Client{X: 5, Y: 4, Mobile: true, TX: 0, TY: 0}
	steps := 0
	for !c.Arrived() {
		c.Step()
		steps++
		if steps > 20 {
			t.Fatal("client never arrives")
		}
	}
	if steps != 5 { // diagonal-first: max(dx,dy)
		t.Fatalf("steps = %d, want 5", steps)
	}
	// Immobile clients never move.
	d := &Client{X: 5, Y: 4, TX: 0, TY: 0}
	d.Step()
	if d.X != 5 || d.Y != 4 {
		t.Fatal("immobile client moved")
	}
}

func TestMovementModelSetup(t *testing.T) {
	m := NewMovementModel(10000, 0.2, 0.02, simtime.NewRand(1))
	if len(m.Clients) != 10000 {
		t.Fatalf("clients = %d", len(m.Clients))
	}
	pop := m.Population()
	for z, n := range pop {
		if n != 100 {
			t.Fatalf("zone %d pop = %d, want uniform 100", z, n)
		}
	}
	mobile := m.MobileCount()
	// 20% of the 6000 middle clients ≈ 1200, allow PRNG spread.
	if mobile < 1000 || mobile > 1400 {
		t.Fatalf("mobile = %d, want ≈1200", mobile)
	}
	// Mobile clients only in the middle rows, targets only in corners.
	for _, c := range m.Clients {
		if c.Mobile {
			if c.Y < 2 || c.Y > 7 {
				t.Fatal("mobile client outside middle rows")
			}
			ul := c.TX <= 1 && c.TY <= 1
			dr := c.TX >= GridW-2 && c.TY >= GridH-2
			if !ul && !dr {
				t.Fatalf("target not a corner: (%d,%d)", c.TX, c.TY)
			}
		}
	}
}

func TestMovementConvergesToCorners(t *testing.T) {
	m := NewMovementModel(10000, 0.2, 0.05, simtime.NewRand(2))
	for i := 0; i < 600; i++ {
		m.Tick()
	}
	if arr := m.ArrivedCount(); float64(arr) < 0.9*float64(m.MobileCount()) {
		t.Fatalf("only %d/%d arrived", arr, m.MobileCount())
	}
	pop := m.Population()
	cornerPop := pop[ZoneAt(0, 0)] + pop[ZoneAt(1, 0)] + pop[ZoneAt(0, 1)] + pop[ZoneAt(1, 1)] +
		pop[ZoneAt(8, 9)] + pop[ZoneAt(9, 9)] + pop[ZoneAt(9, 8)] + pop[ZoneAt(8, 8)]
	if cornerPop < 1500 {
		t.Fatalf("corner population = %d, want concentration", cornerPop)
	}
	total := 0
	for _, n := range pop {
		total += n
	}
	if total != 10000 {
		t.Fatalf("clients lost: %d", total)
	}
}

func TestDBServerProtocol(t *testing.T) {
	c := proc.NewCluster(simtime.NewScheduler(), 2)
	db, err := StartDBServer(c.Nodes[1])
	if err != nil {
		t.Fatal(err)
	}
	sk := newDBClient(t, c, 0)
	var got []byte
	sk.OnReadable = func() { got = append(got, sk.Recv()...) }
	sk.Send([]byte("SET hp 100;GET hp;BOGUS;"))
	c.Sched.RunFor(time.Second)
	if string(got) != "OK;VAL 100;ERR;" {
		t.Fatalf("replies = %q", got)
	}
	if db.Get("hp") != "100" || db.Queries != 3 || db.Sessions != 1 {
		t.Fatalf("db state: %q %d %d", db.Get("hp"), db.Queries, db.Sessions)
	}
}

// TestDBServerUnterminatedInputIsLinear feeds one session 1 MiB without a
// single ';' in 256-byte writes — what the freeze harness's zone process
// does to its DB session — and bounds the bytes the whole simulation
// allocates meanwhile: re-copying the backlog per segment costs ~2 GiB
// here, a buffer scanned once costs a few MiB. A fresh session must
// still be served afterwards.
func TestDBServerUnterminatedInputIsLinear(t *testing.T) {
	c := proc.NewCluster(simtime.NewScheduler(), 2)
	db, err := StartDBServer(c.Nodes[1])
	if err != nil {
		t.Fatal(err)
	}
	flood := newDBClient(t, c, 0)
	chunk := bytes.Repeat([]byte{'x'}, 256)
	const total = 1 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for sent := 0; sent < total; sent += len(chunk) {
		if err := flood.Send(chunk); err != nil {
			t.Fatal(err)
		}
		c.Sched.RunFor(time.Millisecond)
	}
	runtime.ReadMemStats(&after)
	if flood.SndUna != flood.SndNxt {
		t.Fatal("the flood was not fully delivered")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16*total {
		t.Fatalf("buffering %d unterminated bytes allocated %d bytes", total, grew)
	}
	if db.Queries != 0 {
		t.Fatalf("unterminated input ran %d commands", db.Queries)
	}

	sk := newDBClient(t, c, 0)
	var got []byte
	sk.OnReadable = func() { got = sk.RecvAppend(got) }
	sk.Send([]byte("SET motd a b c;GET motd;"))
	c.Sched.RunFor(time.Second)
	if string(got) != "OK;VAL a b c;" || db.Get("motd") != "a b c" {
		t.Fatalf("fresh session after the flood: replies %q, stored %q", got, db.Get("motd"))
	}
}

func newDBClient(t *testing.T, c *proc.Cluster, nodeIdx int) *netstack.TCPSocket {
	t.Helper()
	sk := netstack.NewTCPSocket(c.Nodes[nodeIdx].Stack)
	if err := sk.Connect(c.Nodes[1].LocalIP, DBPort); err != nil {
		t.Fatal(err)
	}
	c.Sched.RunFor(time.Second)
	return sk
}

func TestZoneServerTicksAndUpdatesDB(t *testing.T) {
	c := proc.NewCluster(simtime.NewScheduler(), 2)
	db, err := StartDBServer(c.Nodes[1])
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultZoneConfig()
	pop := 150
	p, err := SpawnZoneServer(c.Nodes[0], ZoneAt(2, 3), c.ClusterIP, c.Nodes[1].LocalIP,
		cfg, func(ZoneID) int { return pop })
	if err != nil {
		t.Fatal(err)
	}
	c.Sched.RunFor(3 * time.Second)
	wantDemand := baseCPU + perClientCPU*float64(pop)
	if p.CPUDemand != wantDemand {
		t.Fatalf("demand = %v, want %v", p.CPUDemand, wantDemand)
	}
	if db.Get("zone32") != "pop150" {
		t.Fatalf("db value = %q", db.Get("zone32"))
	}
	// Population change propagates.
	pop = 60
	c.Sched.RunFor(time.Second)
	if p.CPUDemand != baseCPU+perClientCPU*float64(pop) {
		t.Fatal("demand did not track population")
	}
	// The loop dirties memory every tick (precopy fuel).
	if len(p.AS.DirtyPages()) == 0 {
		t.Fatal("zone server does not touch memory")
	}
}

// A zone config no server can run on used to panic (integer divide by
// zero on the first tick, or inside NewTicker); New must refuse it with
// a typed cause instead.
func TestNewRejectsUnrunnableZoneConfig(t *testing.T) {
	for name, mutate := range map[string]func(*ZoneServerConfig){
		"MemPages=0":   func(z *ZoneServerConfig) { z.MemPages = 0 },
		"LoopPeriod=0": func(z *ZoneServerConfig) { z.LoopPeriod = 0 },
		"LoopPeriod<0": func(z *ZoneServerConfig) { z.LoopPeriod = -time.Millisecond },
	} {
		cfg := DefaultConfig()
		mutate(&cfg.Zone)
		s, err := New(cfg)
		if !errors.Is(err, ErrZoneConfig) {
			t.Fatalf("%s: New returned (%v, %v), want ErrZoneConfig", name, s, err)
		}
	}
}

func TestSimulationInitialBalance(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 30 * 1e9 // before movement starts
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := s.Run()
	// Every node near 78%, no migrations.
	for _, name := range r.CPU.Names() {
		m := r.NodeCPUMean(name, 10e9)
		if m < 70 || m > 85 {
			t.Fatalf("%s initial CPU = %v%%, want ≈78%%", name, m)
		}
	}
	if r.Migrations != 0 {
		t.Fatal("migrations before any imbalance")
	}
	// 20 zone servers per node.
	for _, name := range r.Procs.Names() {
		if v := r.Procs.Get(name).Values[0]; v != ZonesPerNode {
			t.Fatalf("%s starts with %v servers", name, v)
		}
	}
}

// Short imbalance test: accelerated movement over a few minutes.
func shortConfig(lbOn bool) Config {
	cfg := DefaultConfig()
	cfg.Duration = 300 * 1e9
	cfg.MoveStart = 30 * 1e9
	cfg.MoveProb = 0.08 // faster drift to fit the shorter run
	cfg.LB = lbOn
	cfg.LBConfig.CalmDown = 8e9
	cfg.LBConfig.ImbalanceThreshold = 0.08
	return cfg
}

func TestSimulationImbalanceWithoutLB(t *testing.T) {
	s, err := New(shortConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	r := s.Run()
	tail := 220 * simtime.Duration(1e9)
	n1 := r.NodeCPUMean("node1", tail)
	n3 := r.NodeCPUMean("node3", tail)
	n5 := r.NodeCPUMean("node5", tail)
	if n1 < 90 || n5 < 90 {
		t.Fatalf("edge nodes not overloaded: node1=%v node5=%v", n1, n5)
	}
	if n3 > 70 {
		t.Fatalf("middle node not relieved: node3=%v", n3)
	}
	if r.Migrations != 0 {
		t.Fatal("no LB but migrations happened")
	}
	if r.FinalSpread < 20 {
		t.Fatalf("expected heavy imbalance, spread=%v", r.FinalSpread)
	}
}

func TestSimulationLBEqualizesLoad(t *testing.T) {
	var spreadOff, spreadOn float64
	var migs int
	{
		s, err := New(shortConfig(false))
		if err != nil {
			t.Fatal(err)
		}
		spreadOff = s.Run().FinalSpread
	}
	{
		s, err := New(shortConfig(true))
		if err != nil {
			t.Fatal(err)
		}
		r := s.Run()
		spreadOn = r.FinalSpread
		migs = r.Migrations
		// Process counts changed: node1/node5 lost servers, middles gained.
		last := func(name string) float64 {
			vs := r.Procs.Get(name).Values
			return vs[len(vs)-1]
		}
		if last("node1") >= ZonesPerNode || last("node5") >= ZonesPerNode {
			t.Fatalf("edge nodes kept all servers: %v/%v", last("node1"), last("node5"))
		}
		if last("node1")+last("node2")+last("node3")+last("node4")+last("node5") != 100 {
			t.Fatal("zone servers lost")
		}
		for _, ft := range r.FreezeTimes {
			if ft > 100*time.Millisecond {
				t.Fatalf("freeze time %v too long for interactive workload", ft)
			}
		}
		// Millisecond freezes cost the clients well under a second in total.
		if r.OutageClientSeconds > 1.0 {
			t.Fatalf("OS-level outage implausibly high: %.3f client-seconds", r.OutageClientSeconds)
		}
	}
	if migs == 0 {
		t.Fatal("LB performed no migrations")
	}
	if spreadOn >= spreadOff/2 {
		t.Fatalf("LB did not reduce imbalance: off=%v on=%v", spreadOff, spreadOn)
	}
}

func TestNeighborLinksEstablishedAndSyncing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 20 * 1e9
	cfg.NeighborLinks = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	// Every zone server holds: db session + listener(s) + neighbor conns.
	// Zone (0,0) has 2 outgoing neighbors; zone (5,5) has 2 outgoing and
	// 2 incoming. Count established non-DB sockets across all zones:
	// each of the 180 grid edges contributes one socket at each end.
	established := 0
	syncSeen := 0
	for z := ZoneID(0); z < GridW*GridH; z++ {
		p := s.zoneProcs[z]
		tcp, _ := p.Sockets()
		for _, sk := range tcp {
			if sk.State == netstack.TCPEstablished && sk.RemotePort != DBPort {
				established++
				if sk.BytesIn > 0 {
					syncSeen++
				}
			}
		}
	}
	if established != 2*180 {
		t.Fatalf("neighbor sockets = %d, want %d", established, 2*180)
	}
	if syncSeen < established*9/10 {
		t.Fatalf("only %d/%d neighbor sockets carried sync traffic", syncSeen, established)
	}
}

func TestNeighborLinksSurviveLoadBalancing(t *testing.T) {
	cfg := shortConfig(true)
	cfg.NeighborLinks = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := s.Run()
	if r.Migrations == 0 {
		t.Fatal("no migrations; test exercises nothing")
	}
	// After the run, every neighbor connection must still be alive and
	// still carrying sync traffic — including those whose endpoints
	// migrated (possibly both).
	type probe struct {
		z  ZoneID
		sk *netstack.TCPSocket
		in uint64
	}
	var probes []probe
	for z := ZoneID(0); z < GridW*GridH; z++ {
		p := s.zoneProcs[z]
		if p.State != proc.ProcRunning {
			// The process object may have been replaced by migration;
			// find its successor by name.
			p = nil
			for _, n := range s.Cluster.Nodes[:cfg.Nodes] {
				for _, q := range n.Processes() {
					if q.Name == fmt.Sprintf("zone_serv%d", int(z)) {
						p = q
					}
				}
			}
			if p == nil {
				t.Fatalf("zone %d lost", z)
			}
		}
		tcp, _ := p.Sockets()
		for _, sk := range tcp {
			if sk.State == netstack.TCPEstablished && sk.RemotePort != DBPort {
				probes = append(probes, probe{z, sk, sk.BytesIn})
			}
		}
	}
	if len(probes) < 2*180 {
		t.Fatalf("neighbor sockets after LB = %d, want %d", len(probes), 2*180)
	}
	s.Cluster.Sched.RunFor(5 * 1e9)
	stalled := 0
	for _, pr := range probes {
		if pr.sk.BytesIn <= pr.in {
			stalled++
		}
	}
	if stalled > 0 {
		t.Fatalf("%d neighbor connections stalled after migrations", stalled)
	}
}

func TestFig5aRendering(t *testing.T) {
	m := Fig5a()
	for _, want := range []string{"n1", "n5", "↖", "↘", "node3"} {
		if !strings.Contains(m, want) {
			t.Fatalf("Fig5a missing %q:\n%s", want, m)
		}
	}
	lines := strings.Split(strings.TrimSpace(m), "\n")
	if len(lines) < GridH+3 {
		t.Fatalf("Fig5a too short: %d lines", len(lines))
	}
}

func TestPopulationHeatmap(t *testing.T) {
	m := NewMovementModel(10000, 0.2, 0.02, simtime.NewRand(5))
	h := PopulationHeatmap(m.Population())
	if !strings.Contains(h, "100") {
		t.Fatalf("heatmap missing uniform population:\n%s", h)
	}
	if len(strings.Split(strings.TrimSpace(h), "\n")) != GridH {
		t.Fatal("heatmap row count wrong")
	}
}

func TestInteractivityDegradesOnlyWithoutLB(t *testing.T) {
	// The system's raison d'être (§I): overload damages interactivity.
	// Without LB the edge nodes saturate and their delivered update rate
	// falls below 20 Hz; with LB it stays at (or very near) full rate.
	off, err := New(shortConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	rOff := off.Run()
	if rOff.WorstUpdateRate() >= 19 {
		t.Fatalf("no interactivity loss without LB: floor=%v", rOff.WorstUpdateRate())
	}
	on, err := New(shortConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	rOn := on.Run()
	if rOn.WorstUpdateRate() <= rOff.WorstUpdateRate() {
		t.Fatalf("LB did not improve the interactivity floor: %v vs %v",
			rOn.WorstUpdateRate(), rOff.WorstUpdateRate())
	}
}

func TestDrainStormEvacuatesEdgeNodeUnderLoad(t *testing.T) {
	// Operational stress: evacuate ALL 20 zone servers of node1 (each
	// holding client listeners, a DB session and neighbor links) while
	// the simulation runs. Every process must land elsewhere with every
	// connection alive.
	cfg := shortConfig(true)
	cfg.NeighborLinks = true
	cfg.Duration = 0 // we drive the clock manually
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched := s.Cluster.Sched
	sched.RunFor(10 * 1e9) // settle
	var moved, leftAtDone int
	var drainErr error
	done := false
	s.Conductors[0].Drain(func(m int, err error) {
		moved, drainErr, done = m, err, true
		leftAtDone = countZoneServers(s.Cluster.Nodes[0])
		// The node leaves the balancing pool, as a departing machine
		// would; otherwise its peers immediately refill it.
		s.Conductors[0].Stop()
	})
	sched.RunFor(120 * 1e9)
	if !done {
		t.Fatal("drain never finished")
	}
	if drainErr != nil {
		t.Fatalf("drain failed after %d moves: %v", moved, drainErr)
	}
	if moved != 20 {
		t.Fatalf("moved %d processes, want 20", moved)
	}
	if leftAtDone != 0 {
		t.Fatalf("node1 still ran %d zone servers at drain completion", leftAtDone)
	}
	total := 0
	for _, n := range s.Cluster.Nodes[:cfg.Nodes] {
		total += countZoneServers(n)
	}
	if total != 100 {
		t.Fatalf("zone servers lost: %d", total)
	}
	// All neighbor links still sync after the storm.
	type probe struct {
		sk *netstack.TCPSocket
		in uint64
	}
	var probes []probe
	for _, n := range s.Cluster.Nodes[:cfg.Nodes] {
		for _, p := range n.Processes() {
			tcp, _ := p.Sockets()
			for _, sk := range tcp {
				if sk.State == netstack.TCPEstablished && sk.RemotePort != DBPort {
					probes = append(probes, probe{sk, sk.BytesIn})
				}
			}
		}
	}
	if len(probes) < 2*180 {
		t.Fatalf("neighbor sockets after storm = %d", len(probes))
	}
	sched.RunFor(5 * 1e9)
	for i, pr := range probes {
		if pr.sk.BytesIn <= pr.in {
			t.Fatalf("neighbor socket %d stalled after drain storm", i)
		}
	}
}

// TestPaperScaleAcceptance runs the full §VI-C configuration — 900
// simulated seconds, 10,000 clients, LB on, neighbor links wired — and
// checks every headline property at once. Skipped under -short.
func TestPaperScaleAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run")
	}
	cfg := DefaultConfig()
	cfg.LB = true
	cfg.NeighborLinks = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := s.Run()
	if r.Migrations == 0 {
		t.Fatal("no migrations at paper scale")
	}
	if r.FinalSpread > 15 {
		t.Fatalf("spread %v%%, want tight convergence", r.FinalSpread)
	}
	if r.WorstUpdateRate() < 19.5 {
		t.Fatalf("interactivity floor %v with LB on", r.WorstUpdateRate())
	}
	for _, f := range r.FreezeTimes {
		if f > 50*time.Millisecond {
			t.Fatalf("freeze %v exceeds the interactive budget", f)
		}
	}
	if r.OutageClientSeconds > 2 {
		t.Fatalf("client outage %v client-seconds", r.OutageClientSeconds)
	}
	total := 0
	for _, n := range s.Cluster.Nodes[:cfg.Nodes] {
		total += countZoneServers(n)
	}
	if total != 100 {
		t.Fatalf("zone servers lost at paper scale: %d", total)
	}
}
