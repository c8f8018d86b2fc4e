package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"dvemig/internal/simprof"
)

// warmups is the number of untimed iterations of one set-up round, and
// setupRounds how many rounds setup_s is the median of.
const (
	warmups     = 3
	setupRounds = 3
)

// span is one benchmark-owned interval around a call into a layer.
// Spans of one iteration (or one driver batch) share Iter; Parent is 0
// on the iteration's root span.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Iter    int    `json:"iter"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the benchmark
// ends. A single driver goroutine records, so no locking.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) begin(parent, iter int, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Iter: iter, Name: name, StartNs: t.now()})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].EndNs = t.now() }

// spanSummary aggregates spans by name. Self time is a span's duration
// minus the part of it its child spans cover.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func (t *tracer) summary() []spanSummary {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.EndNs - s.StartNs
	}
	byName := map[string]*spanSummary{}
	var out []*spanSummary
	for _, s := range t.spans {
		e := byName[s.Name]
		if e == nil {
			e = &spanSummary{Name: s.Name}
			byName[s.Name] = e
			out = append(out, e)
		}
		e.Count++
		e.TotalMs += float64(s.EndNs-s.StartNs) / 1e6
		e.SelfMs += float64(s.EndNs-s.StartNs-child[s.ID]) / 1e6
	}
	res := make([]spanSummary, len(out))
	for i, e := range out {
		res[i] = *e
	}
	return res
}

// loopStats is one closed-loop run of a workload.
type loopStats struct {
	wallNs []int64
	// outs holds the first simIters iterations' simulated outputs; the
	// counters below cover every iteration.
	outs                 []simOut
	digests              []uint64
	attempted, completed int
	failed               int
	failures             []string
	totalNs              int64
	allocBytes, mallocs  uint64
	gcPauseNs            uint64
}

// runLoop runs iterations of w one after another until both minIters
// have run and budget has elapsed. prof and tr are nil on the untraced
// run.
func runLoop(w *workload, seed uint64, minIters int, budget time.Duration, prof *simprof.Profiler, tr *tracer) loopStats {
	var ls loopStats
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < minIters || time.Since(start) < budget; i++ {
		tc := traceCtx{prof: prof, tr: tr, iter: i}
		t0 := time.Now()
		if tr != nil {
			tc.parent = tr.begin(0, i, "iter:"+w.name)
		}
		out, err := w.run(w.iterSeed(seed, i), tc)
		if tr != nil {
			tr.end(tc.parent)
		}
		ls.wallNs = append(ls.wallNs, int64(time.Since(t0)))
		if err != nil {
			out.failf("iteration error: %v", err)
		}
		ls.attempted += out.attempted
		ls.completed += out.completed
		ls.failed += len(out.failures)
		for _, f := range out.failures {
			if len(ls.failures) < 8 {
				ls.failures = append(ls.failures, fmt.Sprintf("iter %d: %s", i, f))
			}
		}
		ls.digests = append(ls.digests, out.digest)
		if i < w.simIters {
			ls.outs = append(ls.outs, out)
		}
	}
	ls.totalNs = int64(time.Since(start))
	runtime.ReadMemStats(&m1)
	ls.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	ls.mallocs = m1.Mallocs - m0.Mallocs
	ls.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	return ls
}

// simDigest folds the per-iteration digests of the simulated-statistics
// window.
func (ls *loopStats) simDigest() uint64 {
	d := newDigester()
	for _, h := range ls.digests[:len(ls.outs)] {
		d.word(h)
	}
	return d.h
}

// setup runs the set-up rounds — each builds the inputs, runs the
// warm-up iterations and collects garbage — and returns the median
// round in seconds. Warm-up failures count like timed ones.
func setup(w *workload, seed uint64, n int) (seconds float64, failures []string) {
	var rounds []float64
	for r := 0; r < n; r++ {
		t0 := time.Now()
		for j := 0; j < warmups; j++ {
			out, err := w.run(w.warmSeed(seed, r*warmups+j), traceCtx{})
			if err != nil {
				out.failf("warm-up error: %v", err)
			}
			failures = append(failures, out.failures...)
		}
		runtime.GC()
		rounds = append(rounds, time.Since(t0).Seconds())
	}
	return median(rounds), failures
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s, n := sorted(v), len(v)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(v))))
	if rank < 1 {
		rank = 1
	}
	return sorted(v)[rank-1]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func nsToMs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}
