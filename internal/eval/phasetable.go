package eval

import (
	"fmt"
	"strings"

	"dvemig/internal/migration"
	"dvemig/internal/obs"
)

// PhaseTablePhases is the source-side migration path shown in the
// per-phase breakdown, in protocol order.
var PhaseTablePhases = []string{"connect", "precopy", "freeze", "transfer", "done"}

// PhaseTable renders the Fig 5c-style per-phase latency breakdown from
// the points' merged metric snapshots: one block per strategy, one row
// per connection count, one column per phase, each cell the mean
// phase-to-phase latency in ms (PhaseEvent.Time-Since as recorded by
// the migration engine's mig/phase_<name>_us histograms). Points
// without a snapshot (unobserved runs) render as "-" rows.
func PhaseTable(points []*FreezePoint) string {
	return blockTable(points, "per-phase migration latency, mean ms (phase event minus previous phase event)",
		PhaseTablePhases, 12, "total",
		func(_ int, phase string) string { return "mig/phase_" + phase + "_us" })
}

// FreezeAttrTable renders the per-connection freeze-time attribution
// (the Fig 5b breakdown axis): one block per strategy, one row per
// connection count, one column per freeze component — coordination
// (freeze round-trips and capture-ack waits), page_copy (dirty-page
// transfer), socket_serialize (per-socket subtraction/serialization
// cost) and xlat (translation-rule install window) — each cell the mean
// attributed time in ms from the engine's
// mig/freeze_attr/conns=NNNN/<component>_us histograms. The components
// sum to the freeze time, so the table says where each extra connection's
// freeze milliseconds actually go.
func FreezeAttrTable(points []*FreezePoint) string {
	return blockTable(points, "freeze-time attribution by connection count, mean ms per component",
		migration.FreezeAttrComponents[:], 17, "freeze-total", migration.FreezeAttrMetric)
}

// blockTable renders one block per strategy, one row per connection
// count and one w-wide column per name in cols — the mean, in ms, of the
// histogram metric(conns, col) names in the point's snapshot — plus
// their sum; a histogram that is missing or empty renders as "-".
func blockTable(points []*FreezePoint, title string, cols []string, w int, sum string, metric func(conns int, col string) string) string {
	byKey := map[[2]int]*FreezePoint{}
	strategies := map[int]bool{}
	for _, p := range points {
		byKey[[2]int{p.Conns, int(p.Strategy)}] = p
		strategies[int(p.Strategy)] = true
	}
	var b strings.Builder
	b.WriteString(title + "\n")
	for _, s := range SweepStrategies {
		if !strategies[int(s)] {
			continue
		}
		fmt.Fprintf(&b, "[%s]\n%8s", s, "conns")
		for _, col := range cols {
			fmt.Fprintf(&b, "%*s", w, col)
		}
		fmt.Fprintf(&b, "%*s\n", w, sum)
		for _, n := range SweepConns {
			p := byKey[[2]int{n, int(s)}]
			if p == nil {
				continue
			}
			fmt.Fprintf(&b, "%8d", n)
			total, seen := 0.0, false
			for _, col := range cols {
				mean, ok := histMeanUs(p.Snap, metric(n, col))
				if !ok {
					fmt.Fprintf(&b, "%*s", w, "-")
					continue
				}
				seen = true
				total += mean
				fmt.Fprintf(&b, "%*.3f", w, mean/1e3)
			}
			if seen {
				fmt.Fprintf(&b, "%*.3f", w, total/1e3)
			} else {
				fmt.Fprintf(&b, "%*s", w, "-")
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// histMeanUs reads one histogram's mean out of a snapshot.
func histMeanUs(s *obs.Snapshot, name string) (float64, bool) {
	if s == nil {
		return 0, false
	}
	h, ok := s.Hist(name)
	if !ok || h.N == 0 {
		return 0, false
	}
	return h.Mean(), true
}
