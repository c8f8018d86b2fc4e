// Command migbench regenerates Fig 5b (worst-case process freeze time)
// and Fig 5c (socket bytes transferred during the freeze phase) by live
// migrating a zone server with 16…1024 client TCP connections plus one
// MySQL session, under the iterative, collective and incremental
// collective socket migration strategies.
//
// Usage:
//
//	migbench [-conns 16,32,...] [-repeats 3] [-what freeze|bytes|all]
//	         [-seed N] [-phase-table] [-attr-table]
//	         [-strategy precopy|postcopy|hybrid] [-strategy-race]
//	         [-trace-out mig.json] [-metrics-out mig.metrics]
//	         [-cpuprofile cpu.pprof] [-memprofile mem.pprof] [-simprof-out simprof.json]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"dvemig/internal/eval"
	"dvemig/internal/migration"
	"dvemig/internal/obs"
	"dvemig/internal/simprof"
)

func main() {
	connsFlag := flag.String("conns", "16,32,64,128,256,512,1024", "comma-separated connection counts")
	repeats := flag.Int("repeats", 3, "repetitions per point (worst case is reported)")
	what := flag.String("what", "all", "freeze|bytes|all")
	parallel := flag.Int("parallel", 0, "worker goroutines for the sweep (0 = GOMAXPROCS, 1 = serial); results are identical at any setting")
	seed := flag.Uint64("seed", 0, "deterministic traffic-alignment seed; same seed = byte-identical artifacts, different seeds diverge (diagnose with obsdiff)")
	traceOut := flag.String("trace-out", "", "run the sweep observed and write a Chrome trace_event JSON of every migration to this file")
	metricsOut := flag.String("metrics-out", "", "run the sweep observed and write the merged metric snapshots to this file")
	phaseTable := flag.Bool("phase-table", false, "run the sweep observed and print the per-phase latency breakdown")
	attrTable := flag.Bool("attr-table", false, "run the sweep observed and print the per-connection freeze-time attribution (Fig 5b breakdown axis)")
	strategy := flag.String("strategy", "precopy", "memory-movement strategy: precopy|postcopy|hybrid (orthogonal to the socket-strategy axis the tables sweep)")
	race := flag.Bool("strategy-race", false, "run the chaos strategy race (all three strategies head to head) and print its tables instead of the Fig 5b/5c sweep")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (post-GC) to this file at exit")
	simprofOut := flag.String("simprof-out", "", "self-profile the simulator's hot paths and write the simprof JSON report to this file")
	flag.Parse()

	sess, err := simprof.OpenSession(*cpuProfile, *memProfile, *simprofOut, 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "migbench: %v\n", err)
		os.Exit(2)
	}
	closeSession := func() {
		if err := sess.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "migbench: writing profiles: %v\n", err)
			os.Exit(1)
		}
	}

	if *race {
		cfg := eval.DefaultStrategySweepConfig()
		cfg.Chaos.Workers = *parallel
		cfg.Chaos.Prof = sess.Prof
		r, err := eval.RunStrategySweep(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "migbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(r.Table())
		fmt.Println(r.Summary())
		closeSession()
		return
	}
	mig, err := migration.StrategyByName(*strategy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "migbench: %v\n", err)
		os.Exit(2)
	}

	var conns []int
	for _, tok := range strings.Split(*connsFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "migbench: bad connection count %q\n", tok)
			os.Exit(2)
		}
		conns = append(conns, n)
	}

	// Conns and Strategy are the sweep's axes; the rest is the template.
	tmpl := eval.DefaultFreezeConfig(0, 0)
	tmpl.Repeats, tmpl.Workers, tmpl.Seed = *repeats, *parallel, *seed
	tmpl.Observe = *traceOut != "" || *metricsOut != "" || *phaseTable || *attrTable
	tmpl.MigCfg.Mig = mig
	tmpl.Prof = sess.Prof
	points, err := eval.RunFreezeSweep(conns, eval.SweepStrategies, tmpl)
	if err != nil {
		fmt.Fprintf(os.Stderr, "migbench: %v\n", err)
		os.Exit(1)
	}
	for _, pt := range points {
		fmt.Fprintf(os.Stderr, "  measured %4d conns / %-24s freeze=%6.1fms bytes=%d\n",
			pt.Conns, pt.Strategy, float64(pt.WorstFreeze)/1e6, pt.WorstSockBytes)
	}
	fmt.Println()
	if *what == "freeze" || *what == "all" {
		fmt.Println("=== Fig 5b ===")
		fmt.Println(eval.Fig5bTable(points))
	}
	if *what == "bytes" || *what == "all" {
		fmt.Println("=== Fig 5c ===")
		fmt.Println(eval.Fig5cTable(points))
	}
	if *phaseTable {
		fmt.Println("=== per-phase breakdown ===")
		fmt.Println(eval.PhaseTable(points))
	}
	if *attrTable {
		fmt.Println("=== freeze-time attribution ===")
		fmt.Println(eval.FreezeAttrTable(points))
	}
	// Point order is conns-major, strategy-minor (the canonical sweep
	// order), and repeats within a point merged in repeat order, so the
	// artifacts are byte-identical at any -parallel setting.
	var caps []*obs.Capture
	for _, pt := range points {
		caps = append(caps, pt.Caps...)
	}
	if err := obs.WriteArtifacts(os.Stderr, *traceOut, *metricsOut, "", caps...); err != nil {
		fmt.Fprintf(os.Stderr, "migbench: %v\n", err)
		os.Exit(1)
	}
	closeSession()
}
