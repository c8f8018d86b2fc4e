package main

import (
	"fmt"
	"math"

	"dvemig/internal/dve"
	"dvemig/internal/eval"
	"dvemig/internal/migration"
	"dvemig/internal/simprof"
	"dvemig/internal/sockmig"
)

// workload is one closed-loop input family: one driver goroutine calls
// run for iteration after iteration, each only after the previous one
// returned. The four workloads exist because the seed's four entry
// points spend their host time in four different layer mixes; the why
// text of each is in BENCHMARK.json and README.md.
type workload struct {
	name string
	// iters is the timed iteration count of a full run (-workload unset);
	// simIters is the prefix of those iterations the simulated statistics
	// and sim_digest are read from, fixed so they stay exact functions of
	// the seed however many iterations a time budget lets through;
	// tracedIters is the traced run's count.
	iters, simIters, tracedIters int
	run                          func(seed uint64, tc traceCtx) (simOut, error)
	// deny names the pool entries (see input) on which the simulation
	// fails one of the workload's output checks, with the check it fails.
	deny map[uint64]string
}

var workloads = []workload{
	{name: "zone64", iters: 100, simIters: 50, tracedIters: 20, run: runFreeze(64, 0)},
	{name: "mem128m", iters: 100, simIters: 50, tracedIters: 20, run: runFreeze(2, 32768)},
	{name: "soak3", iters: 50, simIters: 25, tracedIters: 10, run: runSoak3, deny: soak3Deny},
	{name: "dve-lb", iters: 16, simIters: 12, tracedIters: 3, run: runDVE},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// simOut is what one iteration's simulation produced: the statistics
// the output checks, sim_digest and every "sim" layer metric read.
type simOut struct {
	// attempted counts migrations the iteration asked for, completed the
	// ones that finished; downUs holds FreezeTime+StallTime of each
	// completed one in simulated microseconds.
	attempted, completed int
	downUs               []float64
	// migs are the engine's own records where the entry point exposes
	// them (soak3 reports downtimes only).
	migs          []*migration.Metrics
	clientRetrans uint64
	soak          soakTotals
	dve           dveTotals
	// digest folds the iteration's simulated outputs; failures lists the
	// output checks it did not pass.
	digest   uint64
	failures []string
}

type soakTotals struct {
	requests, failed, aborted, retries     int
	dispatches, resends, dedups, takeovers uint64
}

type dveTotals struct {
	migrations                      int
	spreadPct, outageClientS, minHz float64
}

// digester folds 64-bit words into an FNV-1a hash.
type digester struct{ h uint64 }

func newDigester() *digester { return &digester{h: 14695981039346656037} }

func (d *digester) word(v uint64) {
	for i := 0; i < 8; i++ {
		d.h ^= v & 0xff
		d.h *= 1099511628211
		v >>= 8
	}
}

func (d *digester) float(v float64) { d.word(math.Float64bits(v)) }

func (o *simOut) addMigration(m *migration.Metrics, d *digester) {
	o.migs = append(o.migs, m)
	o.downUs = append(o.downUs, float64(m.FreezeTime+m.StallTime)/1e3)
	d.word(uint64(m.FreezeTime))
	d.word(uint64(m.StallTime))
	d.word(uint64(m.TotalTime))
	d.word(m.FreezeSockBytes)
	d.word(m.MemPageBytes)
	d.word(uint64(m.Captured)<<32 | uint64(m.Reinjected))
}

func (o *simOut) failf(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// runFreeze is the Fig 5b harness: one live migration of a zone server
// with conns client connections (plus its DB session) while clients and
// server keep exchanging updates. memPages != 0 overrides the working
// set (every fourth page resident).
func runFreeze(conns int, memPages uint64) func(uint64, traceCtx) (simOut, error) {
	return func(seed uint64, tc traceCtx) (simOut, error) {
		fc := eval.DefaultFreezeConfig(sockmig.IncrementalCollective, conns)
		fc.Repeats = 1
		fc.Workers = 1
		if memPages != 0 {
			fc.MemPages = memPages
		}
		fc.Seed = seed
		fc.Prof = tc.prof
		end := tc.span("eval.RunFreezePoint")
		pt, err := eval.RunFreezePoint(fc)
		end()
		out := simOut{attempted: 1}
		if err != nil {
			return out, err
		}
		defer tc.span("check")()
		d := newDigester()
		for _, m := range pt.Runs {
			if m.Aborted {
				out.failf("migration aborted: %s", m.AbortReason)
				continue
			}
			out.completed++
			out.addMigration(m, d)
			if m.TCPMigrated != conns+1 {
				out.failf("TCPMigrated = %d, want %d", m.TCPMigrated, conns+1)
			}
			if m.Captured != m.Reinjected {
				out.failf("captured %d != reinjected %d", m.Captured, m.Reinjected)
			}
		}
		if out.completed != 1 {
			out.failf("%d migrations completed, want 1", out.completed)
		}
		out.clientRetrans = pt.ClientRetransmits
		if pt.ClientRetransmits != 0 {
			out.failf("client retransmits = %d, want 0", pt.ClientRetransmits)
		}
		d.word(pt.ClientRetransmits)
		out.digest = d.h
		return out, nil
	}
}

var soak3Scenarios = map[string]bool{"healthy": true, "lossy": true, "ctl-crash": true}

// runSoak3 pumps 500 declarative migration requests through the control
// plane in each of three cells: no faults, 3% loss on every in-cluster
// link, and a primary-controller crash with standby takeover.
func runSoak3(seed uint64, tc traceCtx) (simOut, error) {
	cfg := eval.DefaultSoakConfig()
	var scenarios []eval.SoakScenario
	for _, sc := range cfg.Scenarios {
		if soak3Scenarios[sc.Name] {
			scenarios = append(scenarios, sc)
		}
	}
	cfg.Scenarios = scenarios
	cfg.Seeds = []uint64{seed}
	cfg.Workers = 1
	cfg.Prof = tc.prof
	end := tc.span("eval.RunSoak")
	rep, err := eval.RunSoak(cfg)
	end()
	var out simOut
	if err != nil {
		return out, err
	}
	defer tc.span("check")()
	d := newDigester()
	if len(rep.Results) != len(soak3Scenarios) {
		out.failf("%d soak cells ran, want %d", len(rep.Results), len(soak3Scenarios))
	}
	for _, r := range rep.Results {
		out.attempted += r.Requests
		out.completed += len(r.DowntimesUs)
		out.downUs = append(out.downUs, r.DowntimesUs...)
		out.soak.requests += r.Requests
		out.soak.failed += r.Failed
		out.soak.aborted += r.Aborted
		out.soak.retries += r.Retries
		out.soak.dispatches += r.Dispatches
		out.soak.resends += r.Resends
		out.soak.dedups += r.Dedups
		out.soak.takeovers += r.Takeovers
		for _, v := range r.Violations {
			out.failf("%s: audit violation: %s", r.Scenario, v)
		}
		if r.PendingAfterDrain != 0 {
			out.failf("%s: %d objects pending after drain", r.Scenario, r.PendingAfterDrain)
		}
		if r.Succeeded+r.Failed+r.Aborted != r.Requests {
			out.failf("%s: %d of %d objects terminal", r.Scenario, r.Succeeded+r.Failed+r.Aborted, r.Requests)
		}
		d.word(r.TraceHash)
		d.word(uint64(r.Succeeded)<<40 | uint64(r.Failed)<<20 | uint64(r.Aborted))
		for _, us := range r.DowntimesUs {
			d.float(us)
		}
	}
	out.digest = d.h
	return out, nil
}

// runDVE is the paper's §VI-C experiment with the load balancer on: 5
// nodes, 10 000 clients drifting toward the corner zones over 900
// simulated seconds while the conductors migrate zone servers away from
// the loaded nodes.
func runDVE(seed uint64, tc traceCtx) (simOut, error) {
	cfg := dve.DefaultConfig()
	cfg.LB = true
	cfg.Seed = seed
	var out simOut
	endNew := tc.span("dve.New")
	sim, err := dve.New(cfg)
	endNew()
	if err != nil {
		return out, err
	}
	if tc.prof != nil {
		sim.Cluster.Sched.Prof = tc.prof.Loop("dve-lb")
		skew := tc.prof.Skew("dve-lb")
		for _, m := range sim.Migrators {
			m.Prof = skew
		}
	}
	end := tc.span("Simulation.Run")
	res := sim.Run()
	end()
	defer tc.span("check")()
	d := newDigester()
	for _, mg := range sim.Migrators {
		for _, m := range mg.Completed {
			out.completed++
			out.addMigration(m, d)
		}
	}
	out.attempted = out.completed
	if res.Migrations < 1 || res.Migrations != out.completed {
		out.failf("dve migrations = %d (engine records %d), want >= 1", res.Migrations, out.completed)
	}
	out.dve.migrations = res.Migrations
	out.dve.spreadPct = res.FinalSpread
	out.dve.outageClientS = res.OutageClientSeconds
	out.dve.minHz = res.WorstUpdateRate()
	// Node.Utilization sums float demands in map order, so FinalSpread
	// differs in its last bits from run to run; fold it at 1e-6.
	d.word(uint64(math.Round(res.FinalSpread * 1e6)))
	d.word(uint64(math.Round(res.OutageClientSeconds * 1e6)))
	out.digest = d.h
	return out, nil
}

// traceCtx carries the traced run's two planes into an iteration: the
// repo's simprof profiler, attached through the public Prof seams, and
// the benchmark's own span recorder. The zero value is the untraced run.
type traceCtx struct {
	prof   *simprof.Profiler
	tr     *tracer
	iter   int
	parent int
}

// span opens a benchmark-owned span under the iteration's root and
// returns the function that closes it.
func (tc traceCtx) span(name string) func() {
	if tc.tr == nil {
		return func() {}
	}
	id := tc.tr.begin(tc.parent, tc.iter, name)
	return func() { tc.tr.end(id) }
}

// hashSeed is splitmix64: iteration i of a run with -seed s draws pool
// entry hashSeed(s*1000+i) mod poolSize. eval.FreezeConfig folds its
// seed to 64 traffic alignments, so consecutive integers would hand
// every run the same 64 cases in the same order; the mix makes each
// -seed a different sample of them.
func hashSeed(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// poolSize is how many distinct inputs a workload has: simulation seeds
// hashSeed(0) .. hashSeed(poolSize-1). A -seed chooses which of them a
// run draws, and in which order; it does not reach outside the pool. The
// pool is finite so that it can be run in full (-vet): the benchmark must
// draw no input on which an operation fails, and the seed commit's
// control plane does fail its own single-owner audit under 3% loss on
// roughly one seed in 600 (soak3Deny), which no sample of an unbounded
// seed space could rule out.
const poolSize = 512

// soak3Deny is what -vet found on the commit the benchmark was defined
// at. Each is a real finding about internal/ctlplane, not about the
// benchmark; fixing it is a later issue, and the fix should empty this
// list.
var soak3Deny = map[uint64]string{
	305: "lossy: audit violation: window 107 [1m47s, 1m48s): single-owner broken: svc02 running on 2 nodes",
	462: "lossy: audit violation: window 183 [3m3s, 3m4s): single-owner broken: svc08 running on 2 nodes",
}

// input maps a draw x to the simulation seed of a pool entry, stepping
// over the denied ones.
func (w *workload) input(x uint64) uint64 {
	k := x % poolSize
	for w.deny[k] != "" {
		k = (k + 1) % poolSize
	}
	return hashSeed(k)
}

func (w *workload) iterSeed(seed uint64, i int) uint64 {
	return w.input(hashSeed(seed*1000 + uint64(i)))
}

// warmSeed draws warm-up inputs from a stream disjoint from iterSeed's.
func (w *workload) warmSeed(seed uint64, j int) uint64 {
	return w.input(hashSeed(^(seed*1000 + uint64(j))))
}
