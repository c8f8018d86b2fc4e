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
	// UpdateHz is the per-client server update rate (20/s, §VI-C);
	// Batches spreads one round of updates across the frame the way a
	// real server's send loop does in time.
	UpdateHz int
	Batches  int
	// MsgBytes is the update payload (256 B, the MMPOG average §VI-C).
	MsgBytes int
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
		UpdateHz: 20,
		Batches:  8,
		MsgBytes: 256,
		MemPages: 256,
		Repeats:  3,
		MigCfg:   cfg,
	}
}

// FreezePoint is one measured point of Fig 5b/5c.
type FreezePoint struct {
	Conns    int
	Strategy sockmig.Strategy
	// WorstFreeze is the worst-case process freeze time (Fig 5b);
	// WorstSockBytes the worst-case socket data transferred during the
	// freeze phase (Fig 5c). ClientRetransmits sums client-side TCP
	// retransmissions over all runs — zero when capture is on, the
	// measure of the capture-off ablation.
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
	repeats := fc.Repeats
	if repeats < 1 {
		repeats = 1
	}
	type once struct {
		m       *migration.Metrics
		retrans uint64
		cap     *obs.Capture
	}
	reps := make([]int, repeats)
	for i := range reps {
		reps[i] = i
	}
	runs, err := RunParallel(reps, fc.Workers, func(rep int) (once, error) {
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
	return RunParallelProf(cells, tmpl.Workers, tmpl.Prof.Sweep("freeze-sweep", tmpl.Workers), RunFreezePoint)
}

func runFreezeOnce(fc FreezeConfig, rep int) (*migration.Metrics, uint64, *obs.Capture, error) {
	label := fmt.Sprintf("freeze-c%d-%s-rep%d", fc.Conns, fc.Strategy, rep)
	f := newFixture(3, fc.Observe, 0, fc.Prof, label) // source, destination, DB
	sched, cluster := f.sched, f.cluster
	var migs []*migration.Migrator
	for _, n := range cluster.Nodes[:2] {
		m, err := f.migrator(n, fc.MigCfg)
		if err != nil {
			return nil, 0, nil, err
		}
		migs = append(migs, m)
	}
	dbNode := cluster.Nodes[2]
	if _, err := dve.StartDBServer(dbNode); err != nil {
		return nil, 0, nil, err
	}
	if _, err := xlat.StartTransd(dbNode.Stack, dbNode.LocalIP); err != nil {
		return nil, 0, nil, err
	}

	src := cluster.Nodes[0]
	p := src.Spawn("zone_serv", 2)
	heap := p.AS.Mmap(fc.MemPages*proc.PageSize, "rw-")
	for i := uint64(0); i < fc.MemPages; i += 4 {
		if err := p.AS.Write(heap.Start+i*proc.PageSize, []byte{byte(i)}); err != nil {
			return nil, 0, nil, err
		}
	}

	// Game clients.
	lst := netstack.NewTCPSocket(src.Stack)
	if err := lst.Listen(cluster.ClusterIP, 7000); err != nil {
		return nil, 0, nil, err
	}
	var serverSide []*netstack.TCPSocket
	lst.OnAccept = func(ch *netstack.TCPSocket) { serverSide = append(serverSide, ch) }
	host := cluster.NewExternalHost("players")
	clients := make([]*netstack.TCPSocket, 0, fc.Conns)
	for i := 0; i < fc.Conns; i++ {
		cli := netstack.NewTCPSocket(host)
		if err := cli.Connect(cluster.ClusterIP, 7000); err != nil {
			return nil, 0, nil, err
		}
		cli.OnReadable = func() { cli.Discard() } // consume updates
		clients = append(clients, cli)
	}
	sched.RunFor(2e9)
	if len(serverSide) != fc.Conns {
		return nil, 0, nil, fmt.Errorf("eval: only %d/%d connections established", len(serverSide), fc.Conns)
	}
	for _, sk := range serverSide {
		p.FDs.Install(&proc.TCPFile{Sock: sk})
	}
	// The local MySQL session (§VI-D: "Each server also maintains a local
	// MySQL session").
	dbSock := netstack.NewTCPSocket(src.Stack)
	if err := dbSock.Connect(dbNode.LocalIP, dve.DBPort); err != nil {
		return nil, 0, nil, err
	}
	p.FDs.Install(&proc.TCPFile{Sock: dbSock})
	sched.RunFor(1e9)

	// Clients send input events at the update rate, their traffic spread
	// across the frame — this is what the capture mechanism must protect
	// during the freeze window.
	cliBatch := 0
	cliTicker := simtime.NewTicker(sched,
		simtime.Duration(1e9)/simtime.Duration(fc.UpdateHz*fc.Batches), "eval.clients", func() {
			cliBatch++
			nb := fc.Batches
			lo := (cliBatch % nb) * len(clients) / nb
			hi := ((cliBatch % nb) + 1) * len(clients) / nb
			for _, cli := range clients[lo:hi] {
				_ = cli.Send([]byte("ev"))
			}
		})
	cliTicker.Start()
	defer cliTicker.Stop()

	// Real-time loop: UpdateHz updates per client per second, the send
	// work spread over Batches sub-frames like a real server's send loop.
	msg := make([]byte, fc.MsgBytes)
	batch := 0
	p.Tick = func(self *proc.Process) {
		batch++
		tcp, _ := self.Sockets()
		if len(tcp) == 0 {
			return
		}
		nb := fc.Batches
		lo := (batch % nb) * len(tcp) / nb
		hi := ((batch % nb) + 1) * len(tcp) / nb
		for _, sk := range tcp[lo:hi] {
			if sk.State == netstack.TCPEstablished {
				sk.Discard()
				_ = sk.Send(msg)
			}
		}
		_ = self.AS.Touch(heap.Start + uint64(batch%int(fc.MemPages))*proc.PageSize)
	}
	p.CPUDemand = 0.4
	period := simtime.Duration(1e9) / simtime.Duration(fc.UpdateHz*fc.Batches)
	src.StartLoop(p, period)

	// Warm up with a phase shift per repetition so the worst case over
	// repeats covers different traffic alignments; the seed shifts the
	// whole family so distinct seeds land on distinct alignments.
	warm := 500*1e6 + simtime.Duration(rep)*7e6 + simtime.Duration(fc.Seed%64)*3e6
	sched.RunFor(warm)

	var got *migration.Metrics
	var gotErr error
	migs[0].Migrate(p, cluster.Nodes[1].LocalIP, func(m *migration.Metrics, err error) {
		got, gotErr = m, err
	})
	sched.RunFor(30e9)
	if gotErr != nil {
		return nil, 0, nil, gotErr
	}
	if got == nil {
		return nil, 0, nil, fmt.Errorf("eval: migration did not complete")
	}
	var retrans uint64
	for _, cli := range clients {
		retrans += cli.Retransmits
	}
	return got, retrans, f.capture(label), nil
}
