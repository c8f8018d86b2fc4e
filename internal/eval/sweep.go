package eval

import (
	"fmt"
	"slices"

	"dvemig/internal/obs"
	"dvemig/internal/simprof"
)

// result is what a sweep needs of one cell's outcome.
type result interface {
	capture() *obs.Capture // nil for an unobserved cell
	// verdict is the cell's trace hash and its audit's violation list,
	// which the sweep extends when a replay diverges.
	verdict() (uint64, *[]string)
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
// back prefixed with its key.
//
// Every cell runs dark: no flight recorder. A cell whose audit found a
// violation runs once more, lit, on the same goroutine. The simulation
// is deterministic, so the replay is the same run with its last events
// on record; the sweep keeps it, and reports a replay that is not the
// same run (another trace hash or violation list) as one more violation.
func sweep[A any, R result](axes []A, seeds []uint64, workers int, sp *simprof.SweepProf,
	key func(A, uint64) string, run func(a A, seed uint64, lit bool) (R, error)) (Report[R], error) {
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
	results, err := RunParallel(cells, workers, sp, func(c cell) (R, error) {
		res, err := run(c.axis, c.seed, false)
		if err != nil {
			return res, fmt.Errorf("%s: %w", key(c.axis, c.seed), err)
		}
		if hash, viol := res.verdict(); len(*viol) > 0 {
			lit, err := run(c.axis, c.seed, true)
			if err != nil {
				return res, fmt.Errorf("%s replay: %w", key(c.axis, c.seed), err)
			}
			if litHash, litViol := lit.verdict(); litHash != hash || !slices.Equal(*litViol, *viol) {
				*litViol = append(*litViol, fmt.Sprintf("replay diverged: trace hash %#x → %#x, violations %d → %d",
					hash, litHash, len(*viol), len(*litViol)))
			}
			res = lit
		}
		return res, nil
	})
	return Report[R]{Results: results}, err
}

// Cell keys, one per battery: how errors and the committed fixed point
// (testdata/fixedpoint.txt) name a cell. A soak key adds the strategy and
// cancel fraction when either differs from DefaultSoakConfig's.
func chaosKey(sc string, seed uint64) string { return fmt.Sprintf("chaos/%s/seed=%d", sc, seed) }
func raceKey(st, sc string, seed uint64) string {
	return fmt.Sprintf("race/%s/%s/seed=%d", st, sc, seed)
}
func failoverKey(sc string, seed uint64) string { return fmt.Sprintf("failover/%s/seed=%d", sc, seed) }
func (cfg SoakConfig) key(scenario string, seed uint64) string {
	k := fmt.Sprintf("soak/%s/seed=%d/req=%d", scenario, seed, cfg.Requests)
	if d := DefaultSoakConfig(); cfg.Strategy != d.Strategy || cfg.CancelFraction != d.CancelFraction {
		k += fmt.Sprintf("/strategy=%s/cancels=%g", cfg.Strategy, cfg.CancelFraction)
	}
	return k
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
		if _, v := res.verdict(); len(*v) > 0 {
			n++
		}
	}
	return n
}
