package eval

import (
	"strings"

	"dvemig/internal/flight"
	"dvemig/internal/migration"
	"dvemig/internal/obs"
	"dvemig/internal/proc"
	"dvemig/internal/simprof"
	"dvemig/internal/simtime"
)

// fixture is what every cell of every battery stands on: a private
// scheduler and cluster with the three optional planes attached —
// observability, flight recorder, wall-clock self-profile. The planes
// only record; none schedules an event, so a cell's simulation is the
// same with any of them on or off.
type fixture struct {
	sched   *simtime.Scheduler
	cluster *proc.Cluster
	obs     *obs.Obs    // nil unless observing
	flight  *flight.Set // nil unless lit
	skew    *simprof.SkewProf
}

// newFixture builds a cluster of nodes machines and attaches the planes:
// obs, then, when lit, the flight tracks (Cluster.AttachFlight's order
// is in every flight dump), then the profiler's loop and skew collectors
// under profLabel.
func newFixture(nodes int, observe, lit bool, prof *simprof.Profiler, profLabel string) *fixture {
	sched := simtime.NewScheduler()
	f := &fixture{sched: sched, cluster: proc.NewCluster(sched, nodes)}
	if observe {
		f.obs = obs.New(sched)
	}
	if lit {
		f.flight = flight.NewSet()
		f.cluster.AttachFlight(f.flight)
	}
	if prof != nil {
		sched.Prof = prof.Loop(profLabel)
		f.skew = prof.Skew(profLabel)
	}
	return f
}

// migrator starts n's migration service wired to the cell's planes.
// Span and metric handles are minted in call order, so a battery calls
// this (and whatever it stacks on the migrator) node by node.
func (f *fixture) migrator(n *proc.Node, cfg migration.Config) (*migration.Migrator, error) {
	m, err := migration.NewMigrator(n, cfg)
	if err != nil {
		return nil, err
	}
	if f.obs != nil {
		m.SetObs(f.obs)
	}
	m.Prof = f.skew
	return m, nil
}

// drain hops from event to event until the queue is empty and returns
// the no-leaked-timer invariant's verdict on what is left. The battery
// has stopped every periodic activity it started; every other timer is
// either canceled eagerly (migration leases, translation retries) or
// self-limiting (TCP retransmission gives up after MaxConsecRetrans —
// with full backoff to MaxRTO that takes tens of simulated minutes,
// hence the horizon), so a healthy cell always reaches Pending()==0.
func (f *fixture) drain() []string {
	limit := f.sched.Now() + 3600*1e9
	for f.sched.Pending() > 0 {
		next, _ := f.sched.NextEventTime()
		if next > limit {
			break
		}
		f.sched.RunUntil(next)
	}
	return noLeakedTimers(f.sched)
}

// capture harvests the cluster's layer counters and freezes the cell's
// observability artifacts under label (nil when unobserved).
func (f *fixture) capture(label string) *obs.Capture {
	obs.HarvestCluster(f.obs.M(), f.cluster)
	return f.obs.Capture(label)
}

// flightDump renders the flight recorder's retained window ("" for a
// dark cell).
func (f *fixture) flightDump() string {
	var b strings.Builder
	f.flight.Dump(&b)
	return b.String()
}

// foldHashes folds per-link trace hashes into one cell hash, in the
// order given.
func foldHashes(links ...*fnvSniffer) uint64 {
	h := newFnvSniffer()
	for _, l := range links {
		h.word(l.h)
	}
	return h.h
}
