// Command report runs the complete evaluation — Fig 4, the Fig 5b/5c
// sweep, the Fig 5d/5e/5f simulations and the broadcast-vs-NAT dispatch
// comparison — and prints one consolidated paper-vs-measured report.
// Its verbs read the observability artifacts the runs export.
//
//	report [-full] [-workers N] [-phase-table] ...  # -full: paper scale (slower)
//	report tracecheck [-connected] file [file ...]  # validate artifacts
//	report obsdiff a b                              # first divergence of two artifacts
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dvemig/internal/dve"
	"dvemig/internal/eval"
	"dvemig/internal/obs"
	"dvemig/internal/openarena"
	"dvemig/internal/simprof"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run dispatches on the first argument, a verb unless it is a flag, and
// returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return evaluate(args, stdout, stderr)
	}
	verb := map[string]func([]string, io.Writer, io.Writer) int{
		"obsdiff": obsdiff, "tracecheck": tracecheck,
	}[args[0]]
	if verb == nil {
		fmt.Fprintf(stderr, "report: unknown verb %q; verbs: obsdiff, tracecheck (none runs the evaluation)\n", args[0])
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

// evaluate is bare report.
func evaluate(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("report", stderr)
	full := fs.Bool("full", false, "paper-scale sweep (1024 connections, 900s simulations)")
	workers := fs.Int("workers", 0, "worker goroutines for the sweeps (0 = GOMAXPROCS, 1 = serial); results are identical at any setting")
	phaseTable := fs.Bool("phase-table", false, "run the Fig 5b/5c sweep observed and print the per-phase latency breakdown")
	art := obs.NewArtifacts(fs, false)
	prof := simprof.NewSession(fs)
	fs.Parse(args)
	if err := prof.Open(); err != nil {
		return die(fs, 2, err)
	}

	fmt.Fprintln(stdout, "=== dvemig evaluation report (all quantities simulated) ===")
	fmt.Fprintln(stdout)

	// Fig 4.
	fig4, err := openarena.RunFig4(openarena.DefaultFig4Config())
	if err != nil {
		return die(fs, 1, err)
	}
	fmt.Fprintln(stdout, "Fig 4 — OpenArena, 24 clients, live migration mid-game")
	fmt.Fprintf(stdout, "  freeze %.1f ms (paper ~20), packet delay %.1f ms (paper ~25), cadence %.1f ms\n",
		float64(fig4.Metrics.FreezeTime)/1e6, float64(fig4.ExtraDelay)/1e6, float64(fig4.BaselineGap)/1e6)
	fmt.Fprintln(stdout)

	// Fig 5b/5c sweep.
	conns := []int{16, 64, 256}
	repeats := 1
	if *full {
		conns = eval.SweepConns
		repeats = 3
	}
	tmpl := eval.DefaultFreezeConfig(0, 0)
	tmpl.Repeats, tmpl.Workers = repeats, *workers
	tmpl.Observe = *phaseTable || art.Observe()
	tmpl.Prof = prof.Prof
	points, err := eval.RunFreezeSweep(conns, eval.SweepStrategies, tmpl)
	if err != nil {
		return die(fs, 1, err)
	}
	fmt.Fprintln(stdout, "Fig 5b — "+eval.Fig5bTable(points))
	fmt.Fprintln(stdout, "Fig 5c — "+eval.Fig5cTable(points))
	if *phaseTable {
		fmt.Fprintln(stdout, "Per-phase breakdown — "+eval.PhaseTable(points))
		fmt.Fprintln(stdout, "Freeze attribution — "+eval.FreezeAttrTable(points))
	}
	var caps []*obs.Capture
	for _, pt := range points {
		caps = append(caps, pt.Caps...)
	}
	if err := art.Write(stderr, caps...); err != nil {
		return die(fs, 1, err)
	}

	// Fig 5d/e/f: the LB-off and LB-on runs are independent
	// simulations, so they too fan out over the parallel runner.
	off := dve.DefaultConfig()
	if !*full {
		off.Duration = 300e9
		off.MoveStart = 30e9
		off.MoveProb = 0.08
	}
	on := off
	on.LB = true
	dveRuns, err := eval.RunParallel([]dve.Config{off, on}, *workers, nil, func(c dve.Config) (*dve.Results, error) {
		sim, err := dve.New(c)
		if err != nil {
			return nil, err
		}
		return sim.Run(), nil
	})
	if err != nil {
		return die(fs, 1, err)
	}
	fmt.Fprintln(stdout, "Fig 5e/5f — DVE load balancing")
	fmt.Fprint(stdout, eval.DVESummary(dveRuns[0], false))
	fmt.Fprint(stdout, eval.DVESummary(dveRuns[1], true))
	fmt.Fprintln(stdout)

	// Extensions.
	bc, nat, err := eval.RunDispatchComparison(eval.DefaultDispatchConfig())
	if err != nil {
		return die(fs, 1, err)
	}
	fmt.Fprintln(stdout, "Extensions")
	fmt.Fprintf(stdout, "  dispatch: %s lost %d datagrams; %s lost %d\n",
		bc.Mode, bc.Lost, nat.Mode, nat.Lost)
	return die(fs, 1, prof.Close())
}
