// Command report runs the complete evaluation — Fig 4, the Fig 5b/5c
// sweep, the Fig 5d/5e/5f simulations and the extension experiments —
// and prints one consolidated paper-vs-measured report.
//
// Usage:
//
//	report [-full]           # -full uses the paper-scale parameters (slower)
//	report [-phase-table]    # adds the observed per-phase latency breakdown
//	report [-cpuprofile cpu.pprof] [-memprofile mem.pprof] [-simprof-out simprof.json]
package main

import (
	"flag"
	"fmt"
	"os"

	"dvemig/internal/dve"
	"dvemig/internal/eval"
	"dvemig/internal/obs"
	"dvemig/internal/openarena"
	"dvemig/internal/simprof"
	"dvemig/internal/stream"
)

func main() {
	full := flag.Bool("full", false, "paper-scale sweep (1024 connections, 900s simulations)")
	parallel := flag.Int("parallel", 0, "worker goroutines for the sweeps (0 = GOMAXPROCS, 1 = serial); results are identical at any setting")
	phaseTable := flag.Bool("phase-table", false, "run the Fig 5b/5c sweep observed and print the per-phase latency breakdown")
	traceOut := flag.String("trace-out", "", "write a Chrome trace of the observed Fig 5b/5c sweep to this file (implies observing the sweep)")
	metricsOut := flag.String("metrics-out", "", "write the observed sweep's merged metric snapshots to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (post-GC) to this file at exit")
	simprofOut := flag.String("simprof-out", "", "self-profile the simulator's hot paths and write the simprof JSON report to this file")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "report: %v\n", err)
		os.Exit(1)
	}

	sess, err := simprof.OpenSession(*cpuProfile, *memProfile, *simprofOut, 1)
	if err != nil {
		fail(err)
	}

	fmt.Println("=== dvemig evaluation report (all quantities simulated) ===")
	fmt.Println()

	// Fig 4.
	fig4, err := openarena.RunFig4(openarena.DefaultFig4Config())
	if err != nil {
		fail(err)
	}
	fmt.Println("Fig 4 — OpenArena, 24 clients, live migration mid-game")
	fmt.Printf("  freeze %.1f ms (paper ~20), packet delay %.1f ms (paper ~25), cadence %.1f ms\n",
		float64(fig4.Metrics.FreezeTime)/1e6, float64(fig4.ExtraDelay)/1e6, float64(fig4.BaselineGap)/1e6)
	fmt.Println()

	// Fig 5b/5c sweep.
	conns := []int{16, 64, 256}
	repeats := 1
	if *full {
		conns = eval.SweepConns
		repeats = 3
	}
	tmpl := eval.DefaultFreezeConfig(0, 0)
	tmpl.Repeats, tmpl.Workers = repeats, *parallel
	tmpl.Observe = *phaseTable || *traceOut != "" || *metricsOut != ""
	tmpl.Prof = sess.Prof
	points, err := eval.RunFreezeSweep(conns, eval.SweepStrategies, tmpl)
	if err != nil {
		fail(err)
	}
	fmt.Println("Fig 5b — " + eval.Fig5bTable(points))
	fmt.Println("Fig 5c — " + eval.Fig5cTable(points))
	if *phaseTable {
		fmt.Println("Per-phase breakdown — " + eval.PhaseTable(points))
		fmt.Println("Freeze attribution — " + eval.FreezeAttrTable(points))
	}
	var caps []*obs.Capture
	for _, pt := range points {
		caps = append(caps, pt.Caps...)
	}
	if err := obs.WriteArtifacts(os.Stderr, *traceOut, *metricsOut, "", caps...); err != nil {
		fail(err)
	}

	// Fig 5d/e/f: the LB-off and LB-on runs are independent simulations,
	// so they too fan out over the parallel runner.
	dcfg := dve.DefaultConfig()
	if !*full {
		dcfg.Duration = 300e9
		dcfg.MoveStart = 30e9
		dcfg.MoveProb = 0.08
	}
	dveRuns, err := eval.RunParallel([]bool{false, true}, *parallel,
		func(lb bool) (*dve.Results, error) { return runDVE(dcfg, lb) })
	if err != nil {
		fail(err)
	}
	off, on := dveRuns[0], dveRuns[1]
	fmt.Println("Fig 5e/5f — DVE load balancing")
	fmt.Print(eval.DVESummary(off, false))
	fmt.Print(eval.DVESummary(on, true))
	fmt.Println()

	// Extensions.
	st, err := stream.RunExperiment(stream.DefaultExperimentConfig())
	if err != nil {
		fail(err)
	}
	bc, nat, err := eval.RunDispatchComparison(eval.DefaultDispatchConfig())
	if err != nil {
		fail(err)
	}
	fmt.Println("Extensions")
	fmt.Printf("  streaming: %d viewer stalls across a live migration (freeze %.1f ms)\n",
		st.Rebuffers, float64(st.Metrics.FreezeTime)/1e6)
	fmt.Printf("  dispatch: %s lost %d datagrams; %s lost %d\n",
		bc.Mode, bc.Lost, nat.Mode, nat.Lost)
	fmt.Printf("  client outage: OS-level %.2f client-seconds vs app-layer baseline %.2f\n",
		on.OutageClientSeconds, mustAppLayer(dcfg).OutageClientSeconds)
	if err := sess.Close(); err != nil {
		fail(err)
	}
}

func runDVE(cfg dve.Config, lb bool) (*dve.Results, error) {
	cfg.LB = lb
	sim, err := dve.New(cfg)
	if err != nil {
		return nil, err
	}
	return sim.Run(), nil
}

func mustAppLayer(cfg dve.Config) *dve.Results {
	cfg.LB = false
	cfg.AppLayerLB = true
	sim, err := dve.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "report: %v\n", err)
		os.Exit(1)
	}
	return sim.Run()
}
