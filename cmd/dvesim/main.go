// Command dvesim runs the paper's simulations. Bare dvesim is the §VI-C
// distributed-virtual-environment run: 10×10 zones on five server
// nodes, 10,000 clients drifting toward the corners over ~15 minutes,
// with or without the load-balancing middleware. It prints the per-node
// CPU series (Fig 5e / Fig 5f), the zone-server distribution series
// (Fig 5d) and a summary. `dvesim <verb> -h` lists a verb's flags.
//
//	dvesim [-lb] [-duration 900] [-fast] [-both] [-csv dir] ...     # Fig 5d/5e/5f
//	dvesim migbench [-conns 16,32,...] [-what freeze|bytes|all] ... # Fig 5b/5c
//	dvesim soak [-requests 500] [-seeds 1,2] [-scenario lossy] ...  # control-plane soak
//	dvesim oabench [-clients 24] [-plot]                            # Fig 4
//	dvesim lbcluster [-nodes 5] [-procs 12]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dvemig/internal/dve"
	"dvemig/internal/eval"
	"dvemig/internal/migration"
	"dvemig/internal/obs"
	"dvemig/internal/simprof"
	"dvemig/internal/simtime"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run dispatches on the first argument, a verb unless it is a flag, and
// returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return simulate(args, stdout, stderr)
	}
	verb := map[string]func([]string, io.Writer, io.Writer) int{
		"lbcluster": lbcluster, "migbench": migbench, "oabench": oabench, "soak": soak,
	}[args[0]]
	if verb == nil {
		fmt.Fprintf(stderr, "dvesim: unknown verb %q; verbs: lbcluster, migbench, oabench, soak (none runs the DVE simulation)\n", args[0])
		return 2
	}
	return verb(args[1:], stdout, stderr)
}

// newFlagSet is a verb's flag set. It prints on stderr and, like the
// default command line, its Parse exits 2 on a bad flag and 0 after -h.
func newFlagSet(verb string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(verb, flag.ExitOnError)
	fs.SetOutput(stderr)
	return fs
}

// die is a verb's exit status for err: 0 when err is nil, else code,
// after printing err as "<verb>: err" on the verb's stderr.
func die(fs *flag.FlagSet, code int, err error) int {
	if err == nil {
		return 0
	}
	fmt.Fprintf(fs.Output(), "%s: %v\n", fs.Name(), err)
	return code
}

// commaList parses the comma-separated value of flag name, skipping
// empty entries.
func commaList[T any](name, value string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, f := range strings.Split(value, ",") {
		if f = strings.TrimSpace(f); f == "" {
			continue
		}
		v, err := parse(f)
		if err != nil {
			return nil, fmt.Errorf("bad -%s entry %q: %w", name, f, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// simulate is bare dvesim.
func simulate(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("dvesim", stderr)
	cfg := dve.DefaultConfig()
	fs.BoolVar(&cfg.LB, "lb", false, "enable the load balancing middleware (Fig 5f) instead of plain (Fig 5e)")
	both := fs.Bool("both", false, "run the LB-off and LB-on simulations concurrently and print both (Fig 5e and 5f)")
	duration := fs.Int("duration", 900, "simulated seconds")
	fast := fs.Bool("fast", false, "accelerated movement for quick demos")
	series := fs.Bool("series", true, "print the full time series tables")
	fs.BoolVar(&cfg.NeighborLinks, "neighbors", false, "connect zone servers to their grid neighbors (both-ends migration)")
	showMap := fs.Bool("fig5a", false, "print the Fig 5a zone map and exit")
	csvDir := fs.String("csv", "", "write cpu.csv / procs.csv / rate.csv time series into this directory (not with -both)")
	strategy := fs.String("strategy", "precopy", "memory-movement strategy for every LB migration: precopy|postcopy|hybrid")
	art := obs.NewArtifacts(fs, true)
	prof := simprof.NewSession(fs)
	fs.Parse(args)

	if *showMap {
		fmt.Fprintln(stdout, dve.Fig5a())
		return 0
	}
	if *both && *csvDir != "" {
		return die(fs, 2, errors.New("-csv writes one run's series; it cannot be combined with -both"))
	}
	if err := prof.Open(); err != nil {
		return die(fs, 2, err)
	}

	mig, err := migration.StrategyByName(*strategy)
	if err != nil {
		return die(fs, 2, err)
	}
	cfg.MigConfig.Mig = mig
	cfg.Observe = art.Observe()
	cfg.Duration = simtime.Duration(*duration) * 1e9
	if *fast {
		cfg.MoveStart = 30 * 1e9
		cfg.MoveProb = 0.08
		cfg.LBConfig.ImbalanceThreshold = 0.08
		cfg.LBConfig.CalmDown = 8e9
	}
	lbs := []bool{cfg.LB}
	if *both {
		// The two runs are independent simulations with private
		// schedulers; the parallel runner overlaps them and returns the
		// results in canonical (off, on) order, so the artifacts are
		// deterministic.
		lbs = []bool{false, true}
		fmt.Fprintf(stderr, "running %ds of simulated time twice (lb off and on, concurrently)...\n", *duration)
	} else {
		fmt.Fprintf(stderr, "running %ds of simulated time (%d zones, %d clients, lb=%v)...\n",
			*duration, dve.GridW*dve.GridH, cfg.Clients, cfg.LB)
	}
	type result struct {
		*dve.Results
		capture *obs.Capture
	}
	runs, err := eval.RunParallel(lbs, 0, func(lb bool) (res result, err error) {
		c := cfg
		c.LB = lb
		sim, err := dve.New(c)
		if err != nil {
			return res, err
		}
		label := fmt.Sprintf("dve/lb=%v", lb)
		sim.Cluster.Sched.Prof = prof.Prof.Loop(label)
		attachSampler(sim, art.Sample)
		res.Results = sim.Run()
		res.capture = sim.CaptureObs(label)
		return res, nil
	})
	if err != nil {
		return die(fs, 1, err)
	}
	var caps []*obs.Capture
	for _, r := range runs {
		caps = append(caps, r.capture)
	}
	if err := art.Write(stderr, caps...); err != nil {
		return die(fs, 1, err)
	}

	last := runs[len(runs)-1]
	if *series {
		for i, r := range runs {
			fig := "Fig 5e (CPU per node, no LB)"
			if lbs[i] {
				fig = "Fig 5f (CPU per node, LB enabled)"
			}
			fmt.Fprintf(stdout, "=== %s ===\n%s\n", fig, r.CPU.Table())
		}
		if lbs[len(lbs)-1] {
			fmt.Fprintf(stdout, "=== Fig 5d (zone servers per node) ===\n%s\n", last.Procs.Table())
		}
	}
	if *csvDir != "" {
		for name, set := range map[string]interface{ CSV() string }{
			"cpu.csv": last.CPU, "procs.csv": last.Procs, "rate.csv": last.UpdateRate,
		} {
			path := filepath.Join(*csvDir, name)
			if err := os.WriteFile(path, []byte(set.CSV()), 0o644); err != nil {
				return die(fs, 1, err)
			}
			fmt.Fprintf(stderr, "wrote %s\n", path)
		}
	}
	for i, r := range runs {
		fmt.Fprintln(stdout, eval.DVESummary(r.Results, lbs[i]))
	}
	return die(fs, 1, prof.Close())
}

// attachSampler arms a sim-time sampler on an observed run: every
// period the cluster totals are harvested (idempotently) into the
// registry and appended to ring series, which CaptureObs then folds
// into the exported artifacts. No-op when unobserved or period ≤ 0.
func attachSampler(sim *dve.Simulation, period time.Duration) {
	if sim.Obs == nil || period <= 0 {
		return
	}
	s := obs.NewSampler(sim.Cluster.Sched, sim.Obs.Metrics, period)
	s.Harvest = func(r *obs.Registry) { obs.HarvestCluster(r, sim.Cluster) }
	sim.Obs.Sampler = s
	s.Start()
}
