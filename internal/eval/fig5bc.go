// Package eval contains the experiment harnesses that regenerate the
// paper's figures: the Fig 5b/5c freeze-time and socket-bytes sweeps over
// connection counts and strategies, wrappers for the Fig 5d/5e/5f DVE
// load-balancing runs (package dve) and the Fig 4 OpenArena run (package
// openarena), plus the ablation experiments DESIGN.md calls out.
package eval

import (
	"fmt"

	"dvemig/internal/dve"
	"dvemig/internal/migration"
	"dvemig/internal/netstack"
	"dvemig/internal/obs"
	"dvemig/internal/proc"
	"dvemig/internal/simprof"
	"dvemig/internal/simtime"
	"dvemig/internal/sockmig"
	"dvemig/internal/xlat"
)

// SweepConns is the connection-count axis of Fig 5b/5c.
var SweepConns = []int{16, 32, 64, 128, 256, 512, 1024}

// SweepStrategies is the strategy axis.
var SweepStrategies = []sockmig.Strategy{
	sockmig.Iterative, sockmig.Collective, sockmig.IncrementalCollective,
}

// FreezeConfig parameterizes one Fig 5b/5c measurement.
type FreezeConfig struct {
	Conns    int
	Strategy sockmig.Strategy
	// MemPages is the zone server working set.
	MemPages uint64
	// Repeats: the experiment reports the worst case over this many runs
	// with different traffic phases.
	Repeats int
	MigCfg  migration.Config
	// Workers bounds how many repeats run concurrently (<= 0 selects
	// GOMAXPROCS, 1 is the serial path). Every repeat owns a private
	// scheduler and cluster, so the point is bit-identical at any worker
	// count; see RunParallel.
	Workers int
	// Observe attaches a per-repeat observability plane; the point then
	// carries one capture per repeat plus a merged metric snapshot.
	Observe bool
	// Seed deterministically shifts every repeat's warm-up phase (and so
	// the traffic alignment the migration lands on). Two runs with the
	// same seed produce byte-identical artifacts at any worker count;
	// two seeds produce different ones — the contract `report obsdiff`
	// and the CI determinism job lean on. Zero is the historical default alignment.
	Seed uint64
	// Prof, when non-nil, attaches the wall-clock self-profiling plane
	// to every repeat (event-loop attribution + migration phase skew).
	// Read-only with respect to the simulation: measured freeze times
	// and artifacts are identical with or without it.
	Prof *simprof.Profiler
}

// DefaultFreezeConfig mirrors the paper's zone-server setup.
func DefaultFreezeConfig(strategy sockmig.Strategy, conns int) FreezeConfig {
	cfg := migration.DefaultConfig()
	cfg.Strategy = strategy
	return FreezeConfig{
		Conns:    conns,
		Strategy: strategy,
		MemPages: 256,
		Repeats:  3,
		MigCfg:   cfg,
	}
}

// The zone server's traffic shape. updateHz is the per-client server
// update rate (20/s, §VI-C); batches spreads one round of updates across
// the frame the way a real server's send loop does in time; msgBytes is
// the update payload (256 B, the MMPOG average §VI-C).
const (
	updateHz = 20
	batches  = 8
	msgBytes = 256
)

// FreezePoint is one measured point of Fig 5b/5c.
type FreezePoint struct {
	Conns    int
	Strategy sockmig.Strategy
	// WorstFreeze is the worst-case process freeze time (Fig 5b);
	// WorstSockBytes the worst-case socket data transferred during the
	// freeze phase (Fig 5c). ClientRetransmits sums client-side TCP
	// retransmissions over all runs, timer-driven and fast — zero when
	// capture is on; with capture off, the segments the freeze window
	// lost, most of them recovered by fast retransmit.
	WorstFreeze       simtime.Duration
	WorstSockBytes    uint64
	ClientRetransmits uint64
	Runs              []*migration.Metrics
	// Caps holds one observability capture per repeat (in repeat order)
	// and Snap their merged metric snapshot; both nil unless
	// FreezeConfig.Observe.
	Caps []*obs.Capture
	Snap *obs.Snapshot
}

// RunFreezePoint measures one (strategy, conns) cell. The repeats run
// on up to fc.Workers goroutines and merge in repeat order, so the
// point is identical at any worker count.
func RunFreezePoint(fc FreezeConfig) (*FreezePoint, error) {
	pt := &FreezePoint{Conns: fc.Conns, Strategy: fc.Strategy}
	type once struct {
		m       *migration.Metrics
		retrans uint64
		cap     *obs.Capture
	}
	reps := make([]int, max(fc.Repeats, 1))
	for i := range reps {
		reps[i] = i
	}
	runs, err := RunParallel(reps, fc.Workers, nil, func(rep int) (once, error) {
		m, retrans, cap, err := runFreezeOnce(fc, rep)
		return once{m: m, retrans: retrans, cap: cap}, err
	})
	if err != nil {
		return nil, err
	}
	var snaps []*obs.Snapshot
	for _, r := range runs {
		pt.Runs = append(pt.Runs, r.m)
		pt.ClientRetransmits += r.retrans
		if r.m.FreezeTime > pt.WorstFreeze {
			pt.WorstFreeze = r.m.FreezeTime
		}
		if r.m.FreezeSockBytes > pt.WorstSockBytes {
			pt.WorstSockBytes = r.m.FreezeSockBytes
		}
		if r.cap != nil {
			pt.Caps = append(pt.Caps, r.cap)
			snaps = append(snaps, r.cap.Snap)
		}
	}
	if len(snaps) > 0 {
		if pt.Snap, err = obs.MergeSnapshots(snaps...); err != nil {
			return nil, err
		}
	}
	return pt, nil
}

// RunFreezeSweep measures the full Fig 5b/5c grid: every (conns,
// strategy) point is a copy of the cell template with those two axes
// filled in — Repeats, Seed, Observe, MigCfg.Mig and Prof are whatever
// the template says (DefaultFreezeConfig for the paper's). The points
// fan out over up to tmpl.Workers goroutines and come back in
// conns-major, strategy-minor order (the order the tables expect); each
// point's repeats run serially inside its cell so parallelism never
// nests. Exports of two equal-seed sweeps are byte-identical at any
// worker count, unequal seeds diverge (the CI obs job asserts both with
// `report obsdiff`), and neither Observe nor Prof moves a measured number: the
// planes never schedule events.
func RunFreezeSweep(conns []int, strategies []sockmig.Strategy, tmpl FreezeConfig) ([]*FreezePoint, error) {
	cells := make([]FreezeConfig, 0, len(conns)*len(strategies))
	for _, n := range conns {
		for _, s := range strategies {
			fc := tmpl
			fc.Conns, fc.Strategy, fc.MigCfg.Strategy = n, s, s
			fc.Workers = 1
			cells = append(cells, fc)
		}
	}
	return RunParallel(cells, tmpl.Workers, tmpl.Prof.Sweep("freeze-sweep", tmpl.Workers), RunFreezePoint)
}

func runFreezeOnce(fc FreezeConfig, rep int) (*migration.Metrics, uint64, *obs.Capture, error) {
	c, err := buildFreezeCell(fc, rep)
	if err != nil {
		return nil, 0, nil, err
	}
	c.migrate()
	if err := c.drain(); err != nil {
		return nil, 0, nil, err
	}
	m, retrans := c.result()
	return m, retrans, c.f.capture(c.label), nil
}

// freezeCell is one repeat of a Fig 5b/5c point: a zone server with its
// game clients and DB session, warmed up on the source and then
// migrated. Its stages run in order — buildFreezeCell, migrate, drain,
// result — and the cell owns its scheduler throughout, so a test can
// run it on past drain and read result again.
type freezeCell struct {
	f       *fixture
	label   string
	dst     *proc.Node
	mig     *migration.Migrator
	p       *proc.Process
	clients []*netstack.TCPSocket
	// period is the server's frame, the step drain advances by.
	period simtime.Duration

	// Written by the migration's done callback: its outcome, and each
	// client's SndNxt at that instant.
	ended bool
	got   *migration.Metrics
	err   error
	marks []uint32
}

// freezeHorizon bounds drain: a client byte still unacknowledged this
// long after the migration began is a transparency failure, not slow
// recovery.
const freezeHorizon simtime.Duration = 30e9

// buildFreezeCell sets the cell up and warms it to the instant the
// migration starts.
func buildFreezeCell(fc FreezeConfig, rep int) (*freezeCell, error) {
	label := fmt.Sprintf("freeze-c%d-%s-rep%d", fc.Conns, fc.Strategy, rep)
	f := newFixture(3, fc.Observe, false, fc.Prof, label) // source, destination, DB
	sched, cluster := f.sched, f.cluster
	var migs []*migration.Migrator
	for _, n := range cluster.Nodes[:2] {
		m, err := f.migrator(n, fc.MigCfg)
		if err != nil {
			return nil, err
		}
		migs = append(migs, m)
	}
	dbNode := cluster.Nodes[2]
	if _, err := dve.StartDBServer(dbNode); err != nil {
		return nil, err
	}
	if _, err := xlat.StartTransd(dbNode.Stack, dbNode.LocalIP); err != nil {
		return nil, err
	}

	src := cluster.Nodes[0]
	p := src.Spawn("zone_serv", 2)
	heap := p.AS.Mmap(fc.MemPages*proc.PageSize, "rw-")
	for i := uint64(0); i < fc.MemPages; i += 4 {
		if err := p.AS.Write(heap.Start+i*proc.PageSize, []byte{byte(i)}); err != nil {
			return nil, err
		}
	}

	// Game clients.
	lst := netstack.NewTCPSocket(src.Stack)
	if err := lst.Listen(cluster.ClusterIP, 7000); err != nil {
		return nil, err
	}
	var serverSide []*netstack.TCPSocket
	lst.OnAccept = func(ch *netstack.TCPSocket) { serverSide = append(serverSide, ch) }
	host := cluster.NewExternalHost("players")
	clients := make([]*netstack.TCPSocket, 0, fc.Conns)
	for i := 0; i < fc.Conns; i++ {
		cli := netstack.NewTCPSocket(host)
		if err := cli.Connect(cluster.ClusterIP, 7000); err != nil {
			return nil, err
		}
		cli.OnReadable = func() { cli.Discard() } // consume updates
		clients = append(clients, cli)
	}
	sched.RunFor(2e9)
	if len(serverSide) != fc.Conns {
		return nil, fmt.Errorf("eval: only %d/%d connections established", len(serverSide), fc.Conns)
	}
	for _, sk := range serverSide {
		p.FDs.Install(&proc.TCPFile{Sock: sk})
	}
	// The local MySQL session (§VI-D: "Each server also maintains a local
	// MySQL session").
	dbSock := netstack.NewTCPSocket(src.Stack)
	if err := dbSock.Connect(dbNode.LocalIP, dve.DBPort); err != nil {
		return nil, err
	}
	p.FDs.Install(&proc.TCPFile{Sock: dbSock})
	sched.RunFor(1e9)

	// Clients send input events at the update rate, their traffic spread
	// across the frame — this is what the capture mechanism must protect
	// during the freeze window.
	cliBatch := 0
	period := simtime.Duration(1e9) / (updateHz * batches)
	simtime.NewTicker(sched, period, "eval.clients", func() {
		cliBatch++
		lo := (cliBatch % batches) * len(clients) / batches
		hi := ((cliBatch % batches) + 1) * len(clients) / batches
		for _, cli := range clients[lo:hi] {
			_ = cli.Send([]byte("ev"))
		}
	}).Start()

	// Real-time loop: updateHz updates per client per second, the send
	// work spread over batches sub-frames like a real server's send loop.
	msg := make([]byte, msgBytes)
	batch := 0
	p.Tick = func(self *proc.Process) {
		batch++
		tcp, _ := self.Sockets()
		if len(tcp) == 0 {
			return
		}
		lo := (batch % batches) * len(tcp) / batches
		hi := ((batch % batches) + 1) * len(tcp) / batches
		for _, sk := range tcp[lo:hi] {
			if sk.State == netstack.TCPEstablished {
				sk.Discard()
				_ = sk.Send(msg)
			}
		}
		_ = self.AS.Touch(heap.Start + uint64(batch%int(fc.MemPages))*proc.PageSize)
	}
	p.CPUDemand = 0.4
	src.StartLoop(p, period)

	// Warm up with a phase shift per repetition so the worst case over
	// repeats covers different traffic alignments; the seed shifts the
	// whole family so distinct seeds land on distinct alignments.
	warm := 500*1e6 + simtime.Duration(rep)*7e6 + simtime.Duration(fc.Seed%64)*3e6
	sched.RunFor(warm)

	return &freezeCell{
		f: f, label: label, dst: cluster.Nodes[1], mig: migs[0],
		p: p, clients: clients, period: period,
	}, nil
}

// migrate starts the live migration; when it ends, the cell records
// each client's SndNxt as the mark drain waits for.
func (c *freezeCell) migrate() {
	c.mig.Migrate(c.p, c.dst.LocalIP, func(m *migration.Metrics, err error) {
		c.ended, c.got, c.err = true, m, err
		c.marks = make([]uint32, len(c.clients))
		for i, cli := range c.clients {
			c.marks[i] = cli.SndNxt
		}
	})
}

// drain advances the cell one server frame at a time and stops at the
// first frame boundary where the migration has ended and every client
// has had acknowledged all it sent before that: from then on nothing the
// freeze window cost a client can still be retransmitted, so every
// output of the cell is final. An aborted migration returns its error at
// once; reaching freezeHorizon first is an error naming what is missing.
func (c *freezeCell) drain() error {
	sched := c.f.sched
	limit := sched.Now() + freezeHorizon
	for {
		if c.ended {
			if c.err != nil {
				return c.err
			}
			if c.unacked() < 0 {
				return nil
			}
		}
		if sched.Now() >= limit {
			break
		}
		sched.RunUntil(min(sched.Now()+c.period, limit))
	}
	if !c.ended {
		return fmt.Errorf("eval: migration did not complete")
	}
	i := c.unacked()
	cli := c.clients[i]
	return fmt.Errorf("eval: client %d (port %d) has %d bytes sent before the migration ended still unacknowledged %v after it began",
		i, cli.LocalPort, int32(c.marks[i]-cli.SndUna), freezeHorizon)
}

// unacked is the first client whose SndUna has not reached its mark, or
// -1 when none is left.
func (c *freezeCell) unacked() int {
	for i, cli := range c.clients {
		if int32(cli.SndUna-c.marks[i]) < 0 {
			return i
		}
	}
	return -1
}

// result is the migration's metrics and the clients' retransmissions,
// timer-driven and fast: capture on, that is zero; capture off, it
// counts the segments the freeze window lost.
func (c *freezeCell) result() (*migration.Metrics, uint64) {
	var retrans uint64
	for _, cli := range c.clients {
		retrans += cli.Retransmits + cli.FastRetransmits
	}
	return c.got, retrans
}
