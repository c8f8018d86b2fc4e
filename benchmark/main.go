// Command benchmark is the repo's performance benchmark: four
// simulation workloads run as a closed loop from one driver goroutine,
// measured end to end in host time and in simulated time, plus a ladder
// of per-layer metrics taken from outside the layers. BENCHMARK.json at
// the repo root declares every metric it prints; README.md in this
// directory says why each workload and metric exists.
//
//	go run ./benchmark -seed 1                       # everything, fixed iteration counts
//	go run ./benchmark -workload zone64 -seed 1 -seconds 20 -trace 0
//	go run ./benchmark -compare a.json b.json
//	go run ./benchmark -vet                          # every pool input once; lists the failing ones
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload, for -seconds, and end with one JSON result line")
		seed    = flag.Uint64("seed", 1, "workload seed: iteration i simulates with hashSeed(seed*1000+i)")
		seconds = flag.Int("seconds", 0, "with -workload: keep iterating until this much time has been measured")
		trace   = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 runs traced and prints the per-layer metrics")
		vet     = flag.Bool("vet", false, "simulate every entry of the input pool once (of -workload, or of all four) and list the ones that fail a check")
		compare = flag.Bool("compare", false, "compare two result files (or comma-separated sets of them): -compare a.json b.json")
		spec    = flag.String("spec", "BENCHMARK.json", "the metric declarations")
		out     = flag.String("out", filepath.Join("benchmark", "out", "result.json"), "result file; traces are written beside it")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare takes two arguments, got %d", flag.NArg())
		}
		os.Exit(runCompare(*spec, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatalf("unexpected arguments %q", flag.Args())
	}
	if *vet {
		var ws []*workload
		for i := range workloads {
			if *name == "" || *name == workloads[i].name {
				ws = append(ws, &workloads[i])
			}
		}
		if len(ws) == 0 {
			fatalf("unknown workload %q", *name)
		}
		os.Exit(runVet(ws))
	}
	sp, err := loadSpec(*spec)
	if err != nil {
		fatalf("%v", err)
	}
	start := time.Now()
	res := result{Host: hostRecord(), Seed: *seed}
	for _, warn := range res.Host.warnings() {
		fmt.Fprintln(os.Stderr, "warning:", warn)
	}
	traces := map[string]*tracer{}
	if *name == "" {
		if *seconds != 0 {
			fatalf("-seconds needs -workload; a full run uses fixed iteration counts")
		}
		traces["drivers"] = newTracer()
		drv := runDrivers(1, 3, traces["drivers"])
		for i := range workloads {
			w := &workloads[i]
			traces[w.name] = newTracer()
			res.Workloads = append(res.Workloads, measure(w, *seed, plan{setupRounds: setupRounds,
				untracedMin: w.iters, tracedIters: w.tracedIters, tr: traces[w.name], drivers: drv}))
		}
	} else {
		w := workloadByName(*name)
		if w == nil {
			fatalf("unknown workload %q", *name)
		}
		budget := time.Duration(*seconds) * time.Second
		p := plan{setupRounds: setupRounds, untracedMin: w.simIters, untracedBudget: budget}
		if *trace == 1 {
			// The traced run keeps fixed counts so its exact statistics
			// do not depend on the host's speed; half the budget goes to
			// the untraced loop it is compared against.
			tr := newTracer()
			traces[w.name] = tr
			p = plan{setupRounds: 1, untracedMin: w.simIters, untracedBudget: budget / 2,
				tracedIters: w.tracedIters, tr: tr, drivers: runDrivers(1, 3, tr)}
		}
		res.Workloads = append(res.Workloads, measure(w, *seed, p))
	}
	res.TotalWallS = time.Since(start).Seconds()

	ok := true
	for i := range res.Workloads {
		wr := &res.Workloads[i]
		if over := wr.PerLayer["harness.trace_overhead_pct"]; over > 25 {
			fmt.Fprintf(os.Stderr, "warning: %s: tracing slows an iteration by %.0f%%; read its shares with that in mind\n", wr.Name, over)
		}
		if err := wr.print(sp); err != nil {
			fatalf("%v", err)
		}
		ok = ok && wr.Correct
	}
	fmt.Printf("total wall %.1f s\n", res.TotalWallS)
	if err := res.write(*out, traces); err != nil {
		fatalf("%v", err)
	}
	if *name != "" {
		wr := &res.Workloads[0]
		set, specs := wr.EndToEnd, sp.EndToEnd
		if *trace == 1 {
			set, specs = wr.PerLayer, sp.PerLayer
		}
		line, err := contractLine(wr, set, specs)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(line)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// metricSpec and benchSpec mirror BENCHMARK.json, the one place units,
// directions and regression bounds are written down.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read the metric declarations: %w", err)
	}
	var sp benchSpec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

// ordered returns values in declaration order and refuses a set that
// differs from the declared one: every metric is emitted exactly once
// and nothing undeclared is.
func ordered(values map[string]float64, specs []metricSpec) ([]float64, error) {
	out := make([]float64, len(specs))
	for i, m := range specs {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("declared metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite: %v", m.Name, v)
		}
		out[i] = v
	}
	if len(values) != len(specs) {
		declared := map[string]bool{}
		for _, m := range specs {
			declared[m.Name] = true
		}
		for k := range values {
			if !declared[k] {
				return nil, fmt.Errorf("measured metric %s is not declared", k)
			}
		}
	}
	return out, nil
}

// plan says how much of a workload to run: the untraced loop runs
// untracedMin iterations and on until untracedBudget has elapsed; a
// non-nil tr adds the traced run of exactly tracedIters iterations,
// whose per-layer metrics are joined by the driver metrics.
type plan struct {
	setupRounds    int
	untracedMin    int
	untracedBudget time.Duration
	tracedIters    int
	tr             *tracer
	drivers        map[string]float64
}

// workloadResult is one workload's part of result.json.
type workloadResult struct {
	Name        string `json:"name"`
	Iters       int    `json:"iters"`
	SimIters    int    `json:"sim_iters"`
	TracedIters int    `json:"traced_iters,omitempty"`
	// SimDigest is FNV-1a over the simulated outputs of the first
	// SimIters iterations; the simulated metrics are read from the same
	// window, so both are exact functions of -seed.
	SimDigest string             `json:"sim_digest"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Spans     []spanSummary      `json:"spans,omitempty"`
}

func measure(w *workload, seed uint64, p plan) workloadResult {
	setupS, failures := setup(w, seed, p.setupRounds)
	ls := runLoop(w, seed, p.untracedMin, p.untracedBudget, nil, nil)
	wr := workloadResult{
		Name: w.name, Iters: len(ls.wallNs), SimIters: len(ls.outs),
		SimDigest: fmt.Sprintf("%016x", ls.simDigest()),
		Attempted: ls.attempted, Failed: ls.failed + len(failures),
		Failures: append(failures, ls.failures...),
		EndToEnd: endToEnd(setupS, &ls),
	}
	if p.tr != nil {
		traced := runTraced(w, seed, p.tracedIters, p.tr)
		wr.TracedIters = len(traced.ls.wallNs)
		wr.Attempted += traced.ls.attempted
		wr.Failed += traced.ls.failed
		wr.Failures = append(wr.Failures, traced.ls.failures...)
		// Tracing must not touch the simulation: the same seeds must
		// have produced the same outputs.
		for i, h := range traced.ls.digests {
			if i < len(ls.digests) && h != ls.digests[i] {
				wr.Failed++
				wr.Failures = append(wr.Failures, fmt.Sprintf("iter %d: traced sim digest %016x != untraced %016x", i, h, ls.digests[i]))
			}
		}
		wr.Spans = p.tr.summary()
		wr.PerLayer = perLayer(&ls, traced, wr.Spans)
		for k, v := range p.drivers {
			wr.PerLayer[k] = v
		}
	}
	wr.Correct = wr.Failed == 0
	return wr
}

func endToEnd(setupS float64, ls *loopStats) map[string]float64 {
	iters := float64(len(ls.wallNs))
	return map[string]float64{
		"setup_s":           setupS,
		"iter_wall_ms_p50":  median(nsToMs(ls.wallNs)),
		"migrations_per_s":  float64(ls.completed) / (float64(ls.totalNs) / 1e9),
		"alloc_mb_per_iter": float64(ls.allocBytes) / 1e6 / iters,
		"allocs_per_iter":   float64(ls.mallocs) / iters,
		"downtime_ms_mean":  mean(ls.downtimesUs()) / 1e3,
	}
}

// print writes the workload's metrics as a table: name, value, unit,
// direction and, for end-to-end metrics, the regression bound.
func (wr *workloadResult) print(sp *benchSpec) error {
	fmt.Printf("== %s: %d iterations, simulated statistics over the first %d, sim_digest %s\n",
		wr.Name, wr.Iters, wr.SimIters, wr.SimDigest)
	vals, err := ordered(wr.EndToEnd, sp.EndToEnd)
	if err != nil {
		return fmt.Errorf("%s: %w", wr.Name, err)
	}
	for i, m := range sp.EndToEnd {
		fmt.Printf("  %-42s %16.6f %-7s %-6s better, bound %.2f\n", m.Name, vals[i], m.Unit, m.Better, m.Bound)
	}
	if wr.PerLayer != nil {
		vals, err := ordered(wr.PerLayer, sp.PerLayer)
		if err != nil {
			return fmt.Errorf("%s: %w", wr.Name, err)
		}
		for i, m := range sp.PerLayer {
			fmt.Printf("  %-42s %16.6f %-7s %-6s better\n", m.Name, vals[i], m.Unit, m.Better)
		}
	}
	fmt.Printf("  failed %d of %d migrations attempted (failed_share %.6f)\n",
		wr.Failed, wr.Attempted, float64(wr.Failed)/math.Max(1, float64(wr.Attempted)))
	for _, f := range wr.Failures {
		fmt.Printf("  FAILED CHECK: %s\n", f)
	}
	return nil
}

// contractLine renders the one-line JSON result a -workload run ends
// with.
func contractLine(wr *workloadResult, values map[string]float64, specs []metricSpec) (string, error) {
	vals, err := ordered(values, specs)
	if err != nil {
		return "", err
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{wr.Correct, wr.Attempted, wr.Failed, map[string]metric{}}
	for i, m := range specs {
		line.Metrics[m.Name] = metric{vals[i], m.Unit}
	}
	data, err := json.Marshal(line)
	return string(data), err
}

// result is result.json.
type result struct {
	Host       host             `json:"host"`
	Seed       uint64           `json:"seed"`
	TotalWallS float64          `json:"total_wall_s"`
	Workloads  []workloadResult `json:"workloads"`
}

// write stores the result at path and each tracer's spans beside it as
// trace-<name>.json.
func (r *result) write(path string, traces map[string]*tracer) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeJSON(path, r); err != nil {
		return err
	}
	for name, tr := range traces {
		if err := writeJSON(filepath.Join(dir, "trace-"+name+".json"), tr.spans); err != nil {
			return err
		}
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
