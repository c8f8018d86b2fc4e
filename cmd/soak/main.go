// Command soak runs the long-horizon control-plane soak: a continuous
// stream of declarative migration objects pumped through the
// reconcile/retry lifecycle across the chaos battery, with exactly-once
// and single-owner audits. The process exits nonzero if any cell ends
// with an audit violation, so CI can gate on it directly.
//
// Usage:
//
//	soak [-requests 500] [-seeds 1,2] [-scenario lossy] [-strategy mixed] [-workers 0]
//	     [-sample 1s] [-series-out series.json]
//	     [-cpuprofile cpu.pprof] [-memprofile mem.pprof] [-simprof-out simprof.json]
//
// With observability on, a sim-time sampler snapshots every cell's
// metrics each -sample period into time series, runs incremental audits
// at every boundary (violations surface in their containing window with
// a scoped flight dump) and evaluates the soak SLOs, rendered after the
// main table.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"dvemig/internal/eval"
	"dvemig/internal/migration"
	"dvemig/internal/obs"
	"dvemig/internal/simprof"
)

func main() {
	requests := flag.Int("requests", 500, "migration objects pumped per (scenario, seed) cell")
	seedsArg := flag.String("seeds", "1,2", "comma-separated rng seeds, one cell per scenario per seed")
	scenario := flag.String("scenario", "", "run a single scenario by name (default: the whole battery)")
	strategy := flag.String("strategy", "mixed", "memory-movement strategy: precopy|postcopy|hybrid|mixed")
	procs := flag.Int("procs", 9, "migratable processes per cell")
	inflight := flag.Int("inflight", 4, "max concurrently open migration objects")
	cancels := flag.Float64("cancels", 0.02, "fraction of submissions that get a cancel verb")
	workers := flag.Int("workers", 0, "sweep parallelism (0 = GOMAXPROCS); results are identical at any value")
	flight := flag.Int("flight", 512, "flight-recorder depth (0 disables; dumped on audit violation)")
	causes := flag.Bool("causes", false, "print sampled failure cause chains per cell")
	traceOut := flag.String("trace-out", "", "write a Chrome trace_event JSON of every cell to this file")
	metricsOut := flag.String("metrics-out", "", "write the merged metric snapshot artifacts to this file")
	sample := flag.Duration("sample", time.Second, "sim-time sampling cadence for series, incremental audits and SLOs (0 disables)")
	seriesOut := flag.String("series-out", "", "write every cell's sampled time series + SLO verdicts to this file (.csv for CSV, else JSON)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (post-GC) to this file at exit")
	simprofOut := flag.String("simprof-out", "", "self-profile the simulator's hot paths and write the simprof JSON report to this file")
	flag.Parse()

	sess, err := simprof.OpenSession(*cpuProfile, *memProfile, *simprofOut, 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "soak: %v\n", err)
		os.Exit(2)
	}

	cfg := eval.DefaultSoakConfig()
	cfg.Requests = *requests
	cfg.Procs = *procs
	cfg.Inflight = *inflight
	cfg.CancelFraction = *cancels
	cfg.Workers = *workers
	cfg.FlightDepth = *flight
	cfg.Prof = sess.Prof
	cfg.Observe = *traceOut != "" || *metricsOut != "" || *seriesOut != ""
	if *sample <= 0 {
		cfg.SamplePeriod = -1 // sampling, incremental audits and SLOs off
	} else {
		cfg.SamplePeriod = *sample
	}
	if *strategy != "mixed" && *strategy != "" {
		if _, err := migration.StrategyByName(*strategy); err != nil {
			fmt.Fprintf(os.Stderr, "soak: %v\n", err)
			os.Exit(2)
		}
	}
	cfg.Strategy = *strategy

	cfg.Seeds = nil
	for _, f := range strings.Split(*seedsArg, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		s, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "soak: bad seed %q: %v\n", f, err)
			os.Exit(2)
		}
		cfg.Seeds = append(cfg.Seeds, s)
	}
	if *scenario != "" {
		var picked []eval.SoakScenario
		for _, sc := range cfg.Scenarios {
			if sc.Name == *scenario {
				picked = append(picked, sc)
			}
		}
		if len(picked) == 0 {
			fmt.Fprintf(os.Stderr, "soak: unknown scenario %q\n", *scenario)
			os.Exit(2)
		}
		cfg.Scenarios = picked
	}

	fmt.Fprintf(os.Stderr, "soaking %d cells × %d requests (strategy %s)...\n",
		len(cfg.Scenarios)*len(cfg.Seeds), cfg.Requests, cfg.Strategy)
	rep, err := eval.RunSoak(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "soak: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(rep.Table())
	if t := rep.SLOTable(); t != "" {
		fmt.Print(t)
	}

	if *causes {
		for _, res := range rep.Results {
			for _, c := range res.FailureCauses {
				fmt.Printf("  %s/seed%d failure: %s\n", res.Scenario, res.Seed, c)
			}
		}
	}
	if err := obs.WriteArtifacts(os.Stderr, *traceOut, *metricsOut, *seriesOut, rep.Captures()...); err != nil {
		fmt.Fprintf(os.Stderr, "soak: %v\n", err)
		os.Exit(1)
	}
	if err := sess.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "soak: writing profiles: %v\n", err)
		os.Exit(1)
	}

	bad := false
	for _, res := range rep.Results {
		if len(res.Violations) > 0 {
			bad = true
			fmt.Printf("\nVIOLATIONS in %s/seed%d:\n", res.Scenario, res.Seed)
			for _, v := range res.Violations {
				fmt.Printf("  - %s\n", v)
			}
			if res.FlightDump != "" {
				fmt.Printf("flight recorder (%s/seed%d):\n%s\n", res.Scenario, res.Seed, res.FlightDump)
			}
		}
	}
	if bad {
		os.Exit(1)
	}
}
