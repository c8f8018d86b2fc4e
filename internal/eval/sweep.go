package eval

import (
	"fmt"

	"dvemig/internal/obs"
	"dvemig/internal/simprof"
)

// result is what a sweep report needs of one cell's outcome.
type result interface {
	capture() *obs.Capture // nil for an unobserved cell
	violations() []string
}

// Report aggregates a sweep: one result per cell, in the canonical grid
// order of the sweep that produced it (axis-major, seed-minor), which is
// the order every rendering and export walks — so the artifacts are
// bit-identical at any worker count.
type Report[R result] struct {
	Results []R
}

// sweep runs one cell per (axis value, seed) pair on up to workers
// goroutines and collects the results in grid order; see RunParallel for
// why that is bit-identical to the serial loop. A cell's error comes
// back prefixed with what(axis) and its seed.
func sweep[A any, R result](axes []A, seeds []uint64, workers int, sp *simprof.SweepProf,
	what func(A) string, run func(A, uint64) (R, error)) (Report[R], error) {
	type cell struct {
		axis A
		seed uint64
	}
	cells := make([]cell, 0, len(axes)*len(seeds))
	for _, a := range axes {
		for _, seed := range seeds {
			cells = append(cells, cell{a, seed})
		}
	}
	results, err := RunParallelProf(cells, workers, sp, func(c cell) (R, error) {
		res, err := run(c.axis, c.seed)
		if err != nil {
			return res, fmt.Errorf("%s seed %d: %w", what(c.axis), c.seed, err)
		}
		return res, nil
	})
	return Report[R]{Results: results}, err
}

// Captures lists the cells' observability captures in result order,
// skipping unobserved cells. Feeding them to obs.WriteChromeTrace in
// this canonical order keeps exported artifacts bit-identical at any
// sweep worker count.
func (r *Report[R]) Captures() []*obs.Capture {
	var out []*obs.Capture
	for _, res := range r.Results {
		if c := res.capture(); c != nil {
			out = append(out, c)
		}
	}
	return out
}

// MergedSnapshot sums every observed cell's metric snapshot in
// canonical order (nil when the sweep ran unobserved). All cells share
// one histogram configuration, so the bounds-mismatch error cannot
// fire; it is surfaced anyway rather than swallowed.
func (r *Report[R]) MergedSnapshot() (*obs.Snapshot, error) {
	caps := r.Captures()
	if len(caps) == 0 {
		return nil, nil
	}
	snaps := make([]*obs.Snapshot, len(caps))
	for i, c := range caps {
		snaps[i] = c.Snap
	}
	return obs.MergeSnapshots(snaps...)
}

// Violations counts cells with a non-empty audit verdict.
func (r *Report[R]) Violations() int {
	n := 0
	for _, res := range r.Results {
		if len(res.violations()) > 0 {
			n++
		}
	}
	return n
}
