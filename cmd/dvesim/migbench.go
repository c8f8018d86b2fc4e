package main

import (
	"errors"
	"fmt"
	"io"
	"strconv"

	"dvemig/internal/eval"
	"dvemig/internal/migration"
	"dvemig/internal/obs"
	"dvemig/internal/simprof"
)

// migbench regenerates Fig 5b (worst-case process freeze time) and Fig
// 5c (socket bytes transferred during the freeze phase) by live
// migrating a zone server with 16…1024 client TCP connections plus one
// MySQL session, under the iterative, collective and incremental
// collective socket migration strategies. -strategy-race runs the chaos
// strategy race instead.
func migbench(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("migbench", stderr)
	// Conns and Strategy are the sweep's axes; the rest is the template.
	tmpl := eval.DefaultFreezeConfig(0, 0)
	connsFlag := fs.String("conns", "16,32,64,128,256,512,1024", "comma-separated connection counts")
	fs.IntVar(&tmpl.Repeats, "repeats", tmpl.Repeats, "repetitions per point (worst case is reported)")
	what := fs.String("what", "all", "freeze|bytes|all")
	fs.IntVar(&tmpl.Workers, "workers", 0, "worker goroutines for the sweep (0 = GOMAXPROCS, 1 = serial); results are identical at any setting")
	fs.Uint64Var(&tmpl.Seed, "seed", 0, "deterministic traffic-alignment seed; same seed = byte-identical artifacts, different seeds diverge (diagnose with report obsdiff)")
	phaseTable := fs.Bool("phase-table", false, "run the sweep observed and print the per-phase latency breakdown")
	attrTable := fs.Bool("attr-table", false, "run the sweep observed and print the per-connection freeze-time attribution (Fig 5b breakdown axis)")
	strategy := fs.String("strategy", "precopy", "memory-movement strategy: precopy|postcopy|hybrid (orthogonal to the socket-strategy axis the tables sweep)")
	race := fs.Bool("strategy-race", false, "run the chaos strategy race (all three strategies head to head) and print its tables instead of the Fig 5b/5c sweep")
	art := obs.NewArtifacts(fs, false)
	prof := simprof.NewSession(fs)
	fs.Parse(args)
	showFreeze, showBytes := *what == "freeze" || *what == "all", *what == "bytes" || *what == "all"
	if !showFreeze && !showBytes {
		return die(fs, 2, fmt.Errorf("-what %q: want freeze, bytes or all", *what))
	}
	if err := prof.Open(); err != nil {
		return die(fs, 2, err)
	}

	if *race {
		cfg := eval.DefaultStrategySweepConfig()
		cfg.Workers = tmpl.Workers
		cfg.Prof = prof.Prof
		r, err := eval.RunStrategySweep(cfg)
		if err != nil {
			return die(fs, 1, err)
		}
		fmt.Fprintln(stdout, r.Table())
		fmt.Fprintln(stdout, r.Summary())
		return die(fs, 1, prof.Close())
	}
	mig, err := migration.StrategyByName(*strategy)
	if err != nil {
		return die(fs, 2, err)
	}
	conns, err := commaList("conns", *connsFlag, func(s string) (int, error) {
		n, err := strconv.Atoi(s)
		if err == nil && n <= 0 {
			err = errors.New("not a positive count")
		}
		return n, err
	})
	if err != nil {
		return die(fs, 2, err)
	}

	tmpl.Observe = art.Observe() || *phaseTable || *attrTable
	tmpl.MigCfg.Mig = mig
	tmpl.Prof = prof.Prof
	points, err := eval.RunFreezeSweep(conns, eval.SweepStrategies, tmpl)
	if err != nil {
		return die(fs, 1, err)
	}
	for _, pt := range points {
		fmt.Fprintf(stderr, "  measured %4d conns / %-24s freeze=%6.1fms bytes=%d\n",
			pt.Conns, pt.Strategy, float64(pt.WorstFreeze)/1e6, pt.WorstSockBytes)
	}
	fmt.Fprintln(stdout)
	if showFreeze {
		fmt.Fprintln(stdout, "=== Fig 5b ===")
		fmt.Fprintln(stdout, eval.Fig5bTable(points))
	}
	if showBytes {
		fmt.Fprintln(stdout, "=== Fig 5c ===")
		fmt.Fprintln(stdout, eval.Fig5cTable(points))
	}
	if *phaseTable {
		fmt.Fprintln(stdout, "=== per-phase breakdown ===")
		fmt.Fprintln(stdout, eval.PhaseTable(points))
	}
	if *attrTable {
		fmt.Fprintln(stdout, "=== freeze-time attribution ===")
		fmt.Fprintln(stdout, eval.FreezeAttrTable(points))
	}
	// Point order is conns-major, strategy-minor (the canonical sweep
	// order), and repeats within a point merged in repeat order, so the
	// artifacts are byte-identical at any -workers setting.
	var caps []*obs.Capture
	for _, pt := range points {
		caps = append(caps, pt.Caps...)
	}
	if err := art.Write(stderr, caps...); err != nil {
		return die(fs, 1, err)
	}
	return die(fs, 1, prof.Close())
}
