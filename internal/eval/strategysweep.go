package eval

import (
	"fmt"
	"slices"
	"strings"

	"dvemig/internal/migration"
	"dvemig/internal/obs"
)

// DefaultStrategySweepConfig is the strategy race's chaos battery: every
// migration strategy runs the default scenarios at the same two seeds, so
// the per-strategy freeze/downtime/degraded-window columns are directly
// comparable cell by cell.
func DefaultStrategySweepConfig() ChaosConfig {
	cfg := DefaultChaosConfig()
	cfg.Seeds = []uint64{1, 2}
	return cfg
}

// Summary renders the head-to-head comparison: per (scenario, strategy)
// means over the seeds that completed. This is the table EXPERIMENTS.md
// quotes.
func (r *ChaosReport) Summary() string {
	type key struct{ scenario, strategy string }
	type agg struct {
		n                   int
		freeze, down, degr  float64
		bytes               uint64
		completed, survived int
		snaps               []*obs.Snapshot
	}
	aggs := make(map[key]*agg)
	var scenarios, strategies []string
	for _, res := range r.Results {
		if !slices.Contains(strategies, res.Strategy) {
			strategies = append(strategies, res.Strategy)
		}
		if !slices.Contains(scenarios, res.Scenario) {
			scenarios = append(scenarios, res.Scenario)
		}
		k := key{res.Scenario, res.Strategy}
		a := aggs[k]
		if a == nil {
			a = &agg{}
			aggs[k] = a
		}
		if res.Survived {
			a.survived++
		}
		if res.Obs != nil && res.Obs.Snap != nil {
			a.snaps = append(a.snaps, res.Obs.Snap)
		}
		if m := res.Metrics; m != nil && res.Completed {
			a.completed++
			a.n++
			a.freeze += float64(m.FreezeTime) / 1e6
			a.down += float64(m.FreezeTime+m.StallTime) / 1e6
			a.degr += float64(m.DegradedWindow) / 1e6
			a.bytes += m.MemPageBytes
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "strategy race summary: mean over completed seeds, per scenario\n")
	fmt.Fprintf(&b, "%-18s %-9s %9s %10s %10s %10s %10s %12s\n",
		"scenario", "strategy", "completed", "freeze-ms", "down-ms", "p99dn-ms", "degr-ms", "page-bytes")
	for _, sc := range scenarios {
		for _, st := range strategies {
			a := aggs[key{sc, st}]
			if a == nil {
				continue
			}
			// p99 downtime across the cell group's histograms, bucket-merged
			// so the percentile covers every seed, not a mean of per-seed
			// estimates.
			p99 := "-"
			if merged, err := obs.MergeSnapshots(a.snaps...); err == nil && merged != nil {
				if h, ok := merged.Hist("mig/downtime_us"); ok && h.N > 0 {
					v, _ := merged.HistogramPercentile("mig/downtime_us", 99)
					p99 = fmt.Sprintf("%.2f", v/1e3)
				}
			}
			if a.n == 0 {
				fmt.Fprintf(&b, "%-18s %-9s %9d %10s %10s %10s %10s %12s\n",
					sc, st, a.completed, "-", "-", p99, "-", "-")
				continue
			}
			n := float64(a.n)
			fmt.Fprintf(&b, "%-18s %-9s %9d %10.2f %10.2f %10s %10.2f %12d\n",
				sc, st, a.completed, a.freeze/n, a.down/n, p99, a.degr/n, a.bytes/uint64(a.n))
		}
	}
	return b.String()
}

// RunStrategySweep races every migration strategy, in
// migration.StrategyNames order, through every chaos scenario at every
// seed: a chaos sweep with the strategy as the outermost axis, so the
// report is strategy-major, scenario-minor, seed-ordered.
func RunStrategySweep(cfg ChaosConfig) (*ChaosReport, error) {
	type raced struct {
		chaos ChaosConfig // cfg with the strategy filled in
		sc    ChaosScenario
	}
	var axes []raced
	for _, st := range migration.StrategyNames() {
		mig, err := migration.StrategyByName(st)
		if err != nil {
			return nil, err
		}
		chaos := cfg
		chaos.MigCfg.Mig, chaos.race = mig, true
		for _, sc := range chaos.Scenarios {
			axes = append(axes, raced{chaos, sc})
		}
	}
	rep, err := sweep(axes, cfg.Seeds, cfg.Workers, cfg.Prof.Sweep("strategy-sweep", cfg.Workers),
		func(a raced, seed uint64) string { return a.chaos.key(a.sc.Name, seed) },
		func(a raced, seed uint64, lit bool) (*ChaosResult, error) { return a.chaos.runCell(a.sc, seed, lit) })
	return &ChaosReport{rep}, err
}
