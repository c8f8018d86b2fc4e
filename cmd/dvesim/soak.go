package main

import (
	"fmt"
	"io"
	"slices"
	"strconv"

	"dvemig/internal/eval"
	"dvemig/internal/migration"
	"dvemig/internal/obs"
	"dvemig/internal/simprof"
)

// soak runs the long-horizon control-plane soak: a continuous stream of
// declarative migration objects pumped through the reconcile/retry
// lifecycle across the chaos battery, with exactly-once and
// single-owner audits, and exits 1 if any cell ends with an audit
// violation. With sampling on, every cell's metrics become time series,
// audits run at every sample boundary and the soak SLOs are evaluated.
func soak(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("soak", stderr)
	cfg := eval.DefaultSoakConfig()
	fs.IntVar(&cfg.Requests, "requests", cfg.Requests, "migration objects pumped per (scenario, seed) cell")
	seedsArg := fs.String("seeds", "1,2", "comma-separated rng seeds, one cell per scenario per seed")
	scenario := fs.String("scenario", "", "run a single scenario by name (default: the whole battery)")
	fs.StringVar(&cfg.Strategy, "strategy", cfg.Strategy, "memory-movement strategy: precopy|postcopy|hybrid|mixed")
	fs.IntVar(&cfg.Procs, "procs", cfg.Procs, "migratable processes per cell")
	fs.IntVar(&cfg.Inflight, "inflight", cfg.Inflight, "max concurrently open migration objects")
	fs.Float64Var(&cfg.CancelFraction, "cancels", cfg.CancelFraction, "fraction of submissions that get a cancel verb")
	fs.IntVar(&cfg.Workers, "workers", 0, "sweep parallelism (0 = GOMAXPROCS); results are identical at any value")
	causes := fs.Bool("causes", false, "print sampled failure cause chains per cell")
	art := obs.NewArtifacts(fs, true)
	prof := simprof.NewSession(fs)
	fs.Parse(args)
	for _, f := range []struct {
		name string
		n    int
	}{{"requests", cfg.Requests}, {"procs", cfg.Procs}, {"inflight", cfg.Inflight}} {
		if f.n <= 0 {
			return die(fs, 2, fmt.Errorf("-%s must be positive, got %d", f.name, f.n))
		}
	}
	if err := prof.Open(); err != nil {
		return die(fs, 2, err)
	}

	cfg.Prof = prof.Prof
	cfg.Observe = art.Observe()
	cfg.SamplePeriod = art.Sample
	if art.Sample <= 0 {
		cfg.SamplePeriod = -1 // sampling, incremental audits and SLOs off
	}
	if cfg.Strategy != "mixed" && cfg.Strategy != "" {
		if _, err := migration.StrategyByName(cfg.Strategy); err != nil {
			return die(fs, 2, err)
		}
	}

	seeds, err := commaList("seeds", *seedsArg, func(s string) (uint64, error) { return strconv.ParseUint(s, 10, 64) })
	if err != nil {
		return die(fs, 2, err)
	}
	cfg.Seeds = seeds
	if *scenario != "" {
		cfg.Scenarios = slices.DeleteFunc(cfg.Scenarios, func(sc eval.SoakScenario) bool { return sc.Name != *scenario })
		if len(cfg.Scenarios) == 0 {
			return die(fs, 2, fmt.Errorf("unknown scenario %q", *scenario))
		}
	}

	fmt.Fprintf(stderr, "soaking %d cells × %d requests (strategy %s)...\n",
		len(cfg.Scenarios)*len(cfg.Seeds), cfg.Requests, cfg.Strategy)
	rep, err := eval.RunSoak(cfg)
	if err != nil {
		return die(fs, 1, err)
	}
	fmt.Fprint(stdout, rep.Table())
	fmt.Fprint(stdout, rep.SLOTable())

	if *causes {
		for _, res := range rep.Results {
			for _, c := range res.FailureCauses {
				fmt.Fprintf(stdout, "  %s/seed%d failure: %s\n", res.Scenario, res.Seed, c)
			}
		}
	}
	if err := art.Write(stderr, rep.Captures()...); err != nil {
		return die(fs, 1, err)
	}
	if err := prof.Close(); err != nil {
		return die(fs, 1, err)
	}

	code := 0
	for _, res := range rep.Results {
		if len(res.Violations) > 0 {
			code = 1
			fmt.Fprintf(stdout, "\nVIOLATIONS in %s/seed%d:\n", res.Scenario, res.Seed)
			for _, v := range res.Violations {
				fmt.Fprintf(stdout, "  - %s\n", v)
			}
			if res.FlightDump != "" {
				fmt.Fprintf(stdout, "flight recorder (%s/seed%d):\n%s\n", res.Scenario, res.Seed, res.FlightDump)
			}
		}
	}
	return code
}
