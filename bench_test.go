// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation section, plus the ablations DESIGN.md calls out. The
// benchmarks measure *simulated* quantities (freeze milliseconds, bytes,
// CPU spread) and publish them as custom metrics; wall-clock ns/op is the
// cost of running the simulator, not the system.
//
//	go test -bench=. -benchmem
package dvemig

import (
	"fmt"
	"testing"
	"time"

	"dvemig/internal/dve"
	"dvemig/internal/eval"
	"dvemig/internal/migration"
	"dvemig/internal/openarena"
	"dvemig/internal/sockmig"
)

// BenchmarkFig4PacketDelay regenerates Fig 4: the packet-level delay an
// OpenArena server's clients observe when the server is live migrated
// (paper: ≈25 ms on the 50 ms cadence; ≈20 ms process downtime).
func BenchmarkFig4PacketDelay(b *testing.B) {
	var extra, freeze float64
	for i := 0; i < b.N; i++ {
		res, err := openarena.RunFig4(openarena.DefaultFig4Config())
		if err != nil {
			b.Fatal(err)
		}
		extra = float64(res.ExtraDelay) / 1e6
		freeze = float64(res.Metrics.FreezeTime) / 1e6
	}
	b.ReportMetric(extra, "delay-ms")
	b.ReportMetric(freeze, "freeze-ms")
}

func freezeBench(b *testing.B, strategy sockmig.Strategy, conns int) *eval.FreezePoint {
	b.Helper()
	fc := eval.DefaultFreezeConfig(strategy, conns)
	fc.Repeats = 1
	var pt *eval.FreezePoint
	for i := 0; i < b.N; i++ {
		var err error
		pt, err = eval.RunFreezePoint(fc)
		if err != nil {
			b.Fatal(err)
		}
	}
	return pt
}

// BenchmarkFig5bFreezeTime regenerates Fig 5b: worst-case process freeze
// time vs connection count for the three socket migration strategies
// (paper @1024: iterative ≈190 ms, incremental collective <40 ms).
func BenchmarkFig5bFreezeTime(b *testing.B) {
	for _, s := range eval.SweepStrategies {
		for _, n := range []int{16, 64, 256, 1024} {
			b.Run(fmt.Sprintf("%s/conns-%d", slug(s), n), func(b *testing.B) {
				pt := freezeBench(b, s, n)
				b.ReportMetric(float64(pt.WorstFreeze)/1e6, "freeze-ms")
			})
		}
	}
}

// BenchmarkFig5cSocketBytes regenerates Fig 5c: socket data transferred
// during the freeze phase (paper @1024: ≈3.5 MB full vs a small fraction
// incremental).
func BenchmarkFig5cSocketBytes(b *testing.B) {
	for _, s := range eval.SweepStrategies {
		for _, n := range []int{16, 64, 256, 1024} {
			b.Run(fmt.Sprintf("%s/conns-%d", slug(s), n), func(b *testing.B) {
				pt := freezeBench(b, s, n)
				b.ReportMetric(float64(pt.WorstSockBytes)/1024, "sock-kB")
			})
		}
	}
}

func slug(s sockmig.Strategy) string {
	switch s {
	case sockmig.Iterative:
		return "iterative"
	case sockmig.Collective:
		return "collective"
	default:
		return "incremental"
	}
}

func dveBenchConfig(lbOn bool) dve.Config {
	cfg := dve.DefaultConfig()
	cfg.Duration = 300 * 1e9
	cfg.MoveStart = 30 * 1e9
	cfg.MoveProb = 0.08
	cfg.LB = lbOn
	cfg.LBConfig.ImbalanceThreshold = 0.08
	cfg.LBConfig.CalmDown = 8e9
	return cfg
}

func runDVE(b *testing.B, lbOn bool) *dve.Results {
	b.Helper()
	var r *dve.Results
	for i := 0; i < b.N; i++ {
		sim, err := dve.New(dveBenchConfig(lbOn))
		if err != nil {
			b.Fatal(err)
		}
		r = sim.Run()
	}
	return r
}

// BenchmarkFig5dProcessDistribution regenerates Fig 5d: how many zone
// servers each node runs over time with load balancing on — edge nodes
// shed servers, middle nodes absorb them.
func BenchmarkFig5dProcessDistribution(b *testing.B) {
	r := runDVE(b, true)
	last := func(name string) float64 {
		vs := r.Procs.Get(name).Values
		return vs[len(vs)-1]
	}
	b.ReportMetric(float64(r.Migrations), "migrations")
	b.ReportMetric(20-last("node1"), "servers-shed-node1")
	b.ReportMetric(20-last("node5"), "servers-shed-node5")
}

// BenchmarkFig5eCPUNoLB regenerates Fig 5e: per-node CPU without load
// balancing — edge nodes >95 %, middle nodes <65-70 %.
func BenchmarkFig5eCPUNoLB(b *testing.B) {
	r := runDVE(b, false)
	b.ReportMetric(r.NodeCPUMean("node1", 220e9), "node1-cpu-%")
	b.ReportMetric(r.NodeCPUMean("node3", 220e9), "node3-cpu-%")
	b.ReportMetric(r.FinalSpread, "cpu-spread-%")
}

// BenchmarkFig5fCPUWithLB regenerates Fig 5f: the same run with load
// balancing enabled — the spread tightens markedly.
func BenchmarkFig5fCPUWithLB(b *testing.B) {
	r := runDVE(b, true)
	b.ReportMetric(r.NodeCPUMean("node1", 220e9), "node1-cpu-%")
	b.ReportMetric(r.NodeCPUMean("node3", 220e9), "node3-cpu-%")
	b.ReportMetric(r.FinalSpread, "cpu-spread-%")
}

// BenchmarkAblationStrategies contrasts the three strategies at a fixed
// 256 connections in one place (the design choice §III-C motivates).
func BenchmarkAblationStrategies(b *testing.B) {
	for _, s := range eval.SweepStrategies {
		b.Run(slug(s), func(b *testing.B) {
			pt := freezeBench(b, s, 256)
			b.ReportMetric(float64(pt.WorstFreeze)/1e6, "freeze-ms")
			b.ReportMetric(float64(pt.WorstSockBytes)/1024, "sock-kB")
		})
	}
}

// BenchmarkAblationIncrementalTracking isolates the incremental socket
// tracking: collective with tracking (incremental collective) vs without
// (plain collective), at 512 connections.
func BenchmarkAblationIncrementalTracking(b *testing.B) {
	for _, s := range []sockmig.Strategy{sockmig.Collective, sockmig.IncrementalCollective} {
		name := "tracking-off"
		if s == sockmig.IncrementalCollective {
			name = "tracking-on"
		}
		b.Run(name, func(b *testing.B) {
			pt := freezeBench(b, s, 512)
			b.ReportMetric(float64(pt.WorstSockBytes)/1024, "freeze-sock-kB")
			var pre float64
			for _, m := range pt.Runs {
				pre += float64(m.PrecopySockBytes) / 1024
			}
			b.ReportMetric(pre/float64(len(pt.Runs)), "precopy-sock-kB")
		})
	}
}

// BenchmarkAblationCaptureOff disables incoming-packet-loss prevention:
// client TCP stacks must retransmit whatever fell into the freeze window
// (paper §III-B / prior work [8] report exactly this loss).
func BenchmarkAblationCaptureOff(b *testing.B) {
	for _, on := range []bool{true, false} {
		name := "capture-on"
		if !on {
			name = "capture-off"
		}
		b.Run(name, func(b *testing.B) {
			fc := eval.DefaultFreezeConfig(sockmig.IncrementalCollective, 128)
			fc.Repeats = 4 // cover several traffic phases
			fc.MigCfg.EnableCapture = on
			var pt *eval.FreezePoint
			for i := 0; i < b.N; i++ {
				var err error
				pt, err = eval.RunFreezePoint(fc)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(pt.ClientRetransmits), "client-retransmits")
			var captured float64
			for _, m := range pt.Runs {
				captured += float64(m.Captured)
			}
			b.ReportMetric(captured, "captured-packets")
		})
	}
}

// BenchmarkAblationPrecopyOff degrades live migration to stop-and-copy:
// all memory moves inside the freeze window.
func BenchmarkAblationPrecopyOff(b *testing.B) {
	for _, on := range []bool{true, false} {
		name := "precopy-on"
		if !on {
			name = "precopy-off"
		}
		b.Run(name, func(b *testing.B) {
			fc := eval.DefaultFreezeConfig(sockmig.IncrementalCollective, 64)
			fc.Repeats = 1
			fc.MemPages = 4096 // 16 MiB: make memory matter
			fc.MigCfg.EnablePrecopy = on
			var pt *eval.FreezePoint
			for i := 0; i < b.N; i++ {
				var err error
				pt, err = eval.RunFreezePoint(fc)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(pt.WorstFreeze)/1e6, "freeze-ms")
			b.ReportMetric(float64(pt.Runs[0].FreezeMemBytes)/1024, "freeze-mem-kB")
		})
	}
}

// BenchmarkAblationLBThreshold sweeps the transfer policy's imbalance
// threshold: too lax leaves imbalance, too eager burns migrations.
func BenchmarkAblationLBThreshold(b *testing.B) {
	for _, thr := range []float64{0.06, 0.12, 0.25} {
		b.Run(fmt.Sprintf("threshold-%.2f", thr), func(b *testing.B) {
			var r *dve.Results
			for i := 0; i < b.N; i++ {
				cfg := dveBenchConfig(true)
				cfg.LBConfig.ImbalanceThreshold = thr
				sim, err := dve.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				r = sim.Run()
			}
			b.ReportMetric(r.FinalSpread, "cpu-spread-%")
			b.ReportMetric(float64(r.Migrations), "migrations")
		})
	}
}

// BenchmarkBaselineNATDispatch contrasts the paper's broadcast router +
// capture design against the NAT single-IP baseline ([8]/[11]): datagram
// loss while a UDP service port moves between nodes.
func BenchmarkBaselineNATDispatch(b *testing.B) {
	var bc, nat *eval.DispatchResult
	for i := 0; i < b.N; i++ {
		var err error
		bc, nat, err = eval.RunDispatchComparison(eval.DefaultDispatchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(bc.Lost), "broadcast-lost")
	b.ReportMetric(float64(nat.Lost), "nat-lost")
}

// BenchmarkMigrationEngine is a plain throughput benchmark of one full
// live migration (8 connections), for profiling the engine itself. It
// runs with the observability plane detached — the nil-check fast path
// whose cost TestAllocGateMigrationEngine fences.
func BenchmarkMigrationEngine(b *testing.B) {
	fc := eval.DefaultFreezeConfig(sockmig.IncrementalCollective, 8)
	fc.Repeats = 1
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunFreezePoint(fc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMigrationEngineStrategy runs the same full migration under
// each memory-movement strategy — the per-strategy engine cost
// (post-copy trades pre-copy's round loop for the demand-pull/prefetch
// machinery; hybrid pays one round plus a smaller pull phase).
func BenchmarkMigrationEngineStrategy(b *testing.B) {
	for _, name := range migration.StrategyNames() {
		name := name
		b.Run(name, func(b *testing.B) {
			mig, err := migration.StrategyByName(name)
			if err != nil {
				b.Fatal(err)
			}
			fc := eval.DefaultFreezeConfig(sockmig.IncrementalCollective, 8)
			fc.Repeats = 1
			fc.MigCfg.Mig = mig
			for i := 0; i < b.N; i++ {
				if _, err := eval.RunFreezePoint(fc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMigrationEngineObserved is the same migration with the
// observability plane attached (spans, phase histograms, harvest and
// capture) — compare against BenchmarkMigrationEngine for the
// enabled-mode overhead.
func BenchmarkMigrationEngineObserved(b *testing.B) {
	fc := eval.DefaultFreezeConfig(sockmig.IncrementalCollective, 8)
	fc.Repeats = 1
	fc.Observe = true
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunFreezePoint(fc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimCoreChaosSweep measures the chaos battery (8 scenarios ×
// 1 seed) at increasing worker counts: the parallel runner's scaling,
// in wall-clock sims/s — the across-cell number ROADMAP 2(c) decides
// the PDES question with. Every worker count produces bit-identical
// results (pinned in internal/eval's parallel tests).
func BenchmarkSimCoreChaosSweep(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			cfg := eval.DefaultChaosConfig()
			cfg.Seeds = []uint64{1}
			cfg.Workers = workers
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if _, err := eval.RunChaosSweep(cfg); err != nil {
					b.Fatal(err)
				}
			}
			elapsed := time.Since(start)
			b.ReportMetric(float64(b.N*len(cfg.Scenarios))/elapsed.Seconds(), "sims/s")
		})
	}
}

// BenchmarkSoakCell is one healthy 100-request cell through the
// declarative control plane: `go test -run '^$' -bench SoakCell -benchmem
// -memprofile m.pprof .` reproduces EXPERIMENTS.md's per-site "soak3
// allocation budget" table (soak3 itself adds a lossy and a ctl-crash
// cell of 500 requests each).
func BenchmarkSoakCell(b *testing.B) {
	cfg := healthySoakConfig(100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runSoakClean(b, cfg)
	}
	b.ReportMetric(float64(cfg.Requests), "requests/op")
}
