package main

import (
	"encoding/json"
	"math"
	"regexp"
	"testing"
)

// TestSmoke runs every workload for one untraced and one traced
// iteration and every driver at 1/100 of its op count, and checks that
// what the benchmark emits is exactly what BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	declare := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q is declared twice", n)
		}
		seen[n] = true
	}
	for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
		declare(m.Name)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}

	tr := newTracer()
	drv := runDrivers(0.01, 1, tr)
	for i, decl := range sp.Workloads {
		declare(decl.Name)
		w := &workloads[i]
		if w.name != decl.Name {
			t.Fatalf("workload %d is %q, BENCHMARK.json declares %q", i, w.name, decl.Name)
		}
		wr := measure(w, 1, plan{untracedMin: 1, tracedIters: 1, tr: tr, drivers: drv})
		if !wr.Correct {
			t.Errorf("%s: output checks failed: %v", w.name, wr.Failures)
		}
		for _, set := range []struct {
			values map[string]float64
			specs  []metricSpec
		}{{wr.EndToEnd, sp.EndToEnd}, {wr.PerLayer, sp.PerLayer}} {
			// contractLine refuses a set that is not exactly the declared
			// one or holds a value that is not finite.
			line, err := contractLine(&wr, set.values, set.specs)
			if err != nil {
				t.Errorf("%s: %v", w.name, err)
				continue
			}
			var parsed struct {
				Metrics map[string]struct{ Value float64 } `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(line), &parsed); err != nil || len(parsed.Metrics) != len(set.specs) {
				t.Errorf("%s: result line carries %d metrics, want %d (%v)", w.name, len(parsed.Metrics), len(set.specs), err)
			}
		}
	}
}

func TestCompareMetric(t *testing.T) {
	lower := metricSpec{Name: "iter_wall_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "migrations_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	noisy := []float64{80, 100, 120, 90, 130}
	for _, tc := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"within bound", lower, steady, []float64{105, 106, 104, 105, 107}, "ok"},
		{"slower than bound", lower, steady, []float64{115, 116, 114, 115, 117}, "regressed"},
		{"fewer per second than bound", higher, steady, []float64{85, 86, 84, 85, 87}, "regressed"},
		{"more per second", higher, steady, []float64{120, 121}, "ok"},
		{"base too noisy to tell", lower, noisy, []float64{125, 126, 124, 125, 127}, "unresolved"},
		{"noisy base, every run better", lower, noisy, []float64{70, 71, 72}, "ok"},
		{"single runs", lower, []float64{100}, []float64{111}, "regressed"},
	} {
		if got := compareMetric(tc.m, tc.a, tc.b).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// is [3.5, 13.5, 31.0].
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if math.Abs(q1-3.5) > 1e-12 || math.Abs(q3-31) > 1e-12 {
		t.Fatalf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}

func TestInputSkipsDeniedEntries(t *testing.T) {
	w := workload{deny: map[uint64]string{3: "fails", 4: "fails", poolSize - 1: "fails"}}
	for x, entry := range map[uint64]uint64{2: 2, 3: 5, 4: 5, poolSize - 1: 0, poolSize + 3: 5, 7*poolSize + 6: 6} {
		if got := w.input(x); got != hashSeed(entry) {
			t.Errorf("input(%d) = %d, want pool entry %d", x, got, entry)
		}
	}
	for _, w := range workloads {
		for k := range w.deny {
			if k >= poolSize {
				t.Errorf("%s denies entry %d, outside the pool of %d", w.name, k, poolSize)
			}
		}
	}
}
