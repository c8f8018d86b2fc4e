// Command dvesim runs the §VI-C distributed-virtual-environment
// simulation: 10×10 zones on five server nodes, 10,000 clients drifting
// toward the corners over ~15 minutes, with or without the load-balancing
// middleware. It prints the per-node CPU series (Fig 5e / Fig 5f), the
// zone-server distribution series (Fig 5d) and a summary.
//
// Usage:
//
//	dvesim [-lb] [-duration 900] [-fast]
//	       [-cpuprofile cpu.pprof] [-memprofile mem.pprof] [-simprof-out simprof.json]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dvemig/internal/dve"
	"dvemig/internal/eval"
	"dvemig/internal/migration"
	"dvemig/internal/obs"
	"dvemig/internal/simprof"
	"dvemig/internal/simtime"
)

func main() {
	lbOn := flag.Bool("lb", false, "enable the load balancing middleware (Fig 5f) instead of plain (Fig 5e)")
	both := flag.Bool("both", false, "run the LB-off and LB-on simulations concurrently and print both (Fig 5e and 5f)")
	duration := flag.Int("duration", 900, "simulated seconds")
	fast := flag.Bool("fast", false, "accelerated movement for quick demos")
	series := flag.Bool("series", true, "print the full time series tables")
	neighbors := flag.Bool("neighbors", false, "connect zone servers to their grid neighbors (both-ends migration)")
	showMap := flag.Bool("fig5a", false, "print the Fig 5a zone map and exit")
	csvDir := flag.String("csv", "", "write cpu.csv / procs.csv / rate.csv time series into this directory")
	traceOut := flag.String("trace-out", "", "write a Chrome trace_event JSON (Perfetto-loadable) of the run to this file")
	metricsOut := flag.String("metrics-out", "", "write the run's metric snapshot (counters/gauges/histograms) to this file")
	sample := flag.Duration("sample", time.Second, "sim-time sampling cadence for the observability time series (0 disables)")
	seriesOut := flag.String("series-out", "", "write the sampled time series to this file (.csv for CSV, else JSON)")
	strategy := flag.String("strategy", "precopy", "memory-movement strategy for every LB migration: precopy|postcopy|hybrid")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (post-GC) to this file at exit")
	simprofOut := flag.String("simprof-out", "", "self-profile the simulator's hot paths and write the simprof JSON report to this file")
	flag.Parse()

	if *showMap {
		fmt.Println(dve.Fig5a())
		return
	}

	sess, err := simprof.OpenSession(*cpuProfile, *memProfile, *simprofOut, 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dvesim: %v\n", err)
		os.Exit(2)
	}
	closeSession := func() {
		if err := sess.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "dvesim: writing profiles: %v\n", err)
			os.Exit(1)
		}
	}

	observe := *traceOut != "" || *metricsOut != "" || *seriesOut != ""
	cfg := dve.DefaultConfig()
	mig, err := migration.StrategyByName(*strategy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dvesim: %v\n", err)
		os.Exit(2)
	}
	cfg.MigConfig.Mig = mig
	cfg.LB = *lbOn
	cfg.Observe = observe
	cfg.NeighborLinks = *neighbors
	cfg.Duration = simtime.Duration(*duration) * 1e9
	if *fast {
		cfg.MoveStart = 30 * 1e9
		cfg.MoveProb = 0.08
		cfg.LBConfig.ImbalanceThreshold = 0.08
		cfg.LBConfig.CalmDown = 8e9
	}
	if *both {
		// The two runs are independent simulations with private
		// schedulers; the parallel runner overlaps them and returns the
		// results in canonical (off, on) order.
		fmt.Fprintf(os.Stderr, "running %ds of simulated time twice (lb off and on, concurrently)...\n", *duration)
		caps := make([]*obs.Capture, 2)
		runs, err := eval.RunParallel([]bool{false, true}, 0, func(lb bool) (*dve.Results, error) {
			c := cfg
			c.LB = lb
			sim, err := dve.New(c)
			if err != nil {
				return nil, err
			}
			sim.Cluster.Sched.Prof = sess.Prof.Loop(fmt.Sprintf("dve/lb=%v", lb))
			attachSampler(sim, *sample)
			r := sim.Run()
			if observe {
				// Index writes are per-worker-disjoint and canonical
				// (off=0, on=1), so the exported file is deterministic.
				idx := 0
				if lb {
					idx = 1
				}
				caps[idx] = sim.CaptureObs(fmt.Sprintf("dve/lb=%v", lb))
			}
			return r, nil
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "dvesim: %v\n", err)
			os.Exit(1)
		}
		writeObs(*traceOut, *metricsOut, *seriesOut, caps...)
		if *series {
			fmt.Printf("=== Fig 5e (CPU per node, no LB) ===\n%s\n", runs[0].CPU.Table())
			fmt.Printf("=== Fig 5f (CPU per node, LB enabled) ===\n%s\n", runs[1].CPU.Table())
			fmt.Printf("=== Fig 5d (zone servers per node) ===\n%s\n", runs[1].Procs.Table())
		}
		fmt.Println(eval.DVESummary(runs[0], false))
		fmt.Println(eval.DVESummary(runs[1], true))
		closeSession()
		return
	}

	sim, err := dve.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dvesim: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "running %ds of simulated time (%d zones, %d clients, lb=%v)...\n",
		*duration, dve.GridW*dve.GridH, cfg.Clients, cfg.LB)
	sim.Cluster.Sched.Prof = sess.Prof.Loop(fmt.Sprintf("dve/lb=%v", cfg.LB))
	attachSampler(sim, *sample)
	r := sim.Run()
	if observe {
		writeObs(*traceOut, *metricsOut, *seriesOut, sim.CaptureObs(fmt.Sprintf("dve/lb=%v", cfg.LB)))
	}

	if *series {
		fig := "Fig 5e (CPU per node, no LB)"
		if cfg.LB {
			fig = "Fig 5f (CPU per node, LB enabled)"
		}
		fmt.Printf("=== %s ===\n%s\n", fig, r.CPU.Table())
		if cfg.LB {
			fmt.Printf("=== Fig 5d (zone servers per node) ===\n%s\n", r.Procs.Table())
		}
	}
	if *csvDir != "" {
		for name, set := range map[string]interface{ CSV() string }{
			"cpu.csv": r.CPU, "procs.csv": r.Procs, "rate.csv": r.UpdateRate,
		} {
			path := filepath.Join(*csvDir, name)
			if err := os.WriteFile(path, []byte(set.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "dvesim: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}
	fmt.Println(eval.DVESummary(r, cfg.LB))
	closeSession()
}

// attachSampler arms a sim-time sampler on an observed run: every
// period the cluster totals are harvested (idempotently) into the
// registry and appended to ring series, which CaptureObs then folds
// into the exported artifacts. No-op when unobserved or period ≤ 0.
func attachSampler(sim *dve.Simulation, period time.Duration) {
	if sim.Obs == nil || period <= 0 {
		return
	}
	s := obs.NewSampler(sim.Cluster.Sched, sim.Obs.Metrics, period, 0)
	s.Harvest = func(r *obs.Registry) { obs.HarvestCluster(r, sim.Cluster) }
	sim.Obs.Sampler = s
	s.Start()
}

// writeObs writes the artifacts whose flags were given.
func writeObs(tracePath, metricsPath, seriesPath string, caps ...*obs.Capture) {
	if err := obs.WriteArtifacts(os.Stderr, tracePath, metricsPath, seriesPath, caps...); err != nil {
		fmt.Fprintf(os.Stderr, "dvesim: %v\n", err)
		os.Exit(1)
	}
}
