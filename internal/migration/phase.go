package migration

import (
	"dvemig/internal/obs"
	"dvemig/internal/simtime"
)

// Phase names the checkpoints of a live migration. The fault plane's
// crash triggers hang off these (internal/faults.CrashAtPhase), and the
// chaos tests use them to pin a failure to an exact protocol moment.
// Connect/Precopy/Freeze/Transfer/Done/Aborted fire on the source
// migrator; Restore/Reinject fire on the destination.
type Phase int

const (
	// PhaseConnect: the migd control connection reached Established.
	PhaseConnect Phase = iota
	// PhasePrecopy: a precopy round is starting (PhaseEvent.Round = k).
	PhasePrecopy
	// PhaseFreeze: the process is being frozen on the source.
	PhaseFreeze
	// PhaseTransfer: socket state subtraction/transfer is starting.
	PhaseTransfer
	// PhaseRestore: the destination received the freeze image and is
	// rebuilding the process.
	PhaseRestore
	// PhaseReinject: the destination is about to reinject captured
	// packets and resume the process.
	PhaseReinject
	// PhaseDone: the source learned the process resumed remotely (and,
	// for post-copy, that every page was delivered).
	PhaseDone
	// PhaseAborted: the migration was rolled back at the source.
	PhaseAborted
	// PhaseResume: the source learned the destination resumed the
	// process with holes (post-copy; downtime ends, the degraded
	// demand-pull window begins). Fires on the source migrator.
	PhaseResume
	// PhasePull: the source served one demand page pull
	// (PhaseEvent.Round = 1-based pull number).
	PhasePull
	// PhasePrefetch: the source pushed one background prefetch batch
	// (PhaseEvent.Round = 1-based batch number).
	PhasePrefetch
	// PhaseDrained: the destination filled its last hole (terminal on
	// the destination for post-copy restores).
	PhaseDrained
)

var phaseNames = [...]string{
	"connect", "precopy", "freeze", "transfer",
	"restore", "reinject", "done", "aborted",
	"resume", "pull", "prefetch", "drained",
}

func (p Phase) String() string {
	if p >= 0 && int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// PhaseEvent describes one phase transition of one migration.
type PhaseEvent struct {
	Phase Phase
	// Round is the 1-based precopy round for PhasePrecopy, 0 otherwise.
	Round int
	// PID is the migrating process.
	PID int
	// Node is the migrator on which the event fired.
	Node string
	Time simtime.Time
	// Since is the sim-time of the previous phase event of the same
	// migration — the migration's start (source side) or the arrival of
	// the migd request (destination side) for the first event. Consumers
	// read the per-phase latency as Time-Since instead of recomputing
	// deltas from their own bookkeeping.
	Since simtime.Time
}

// migObsHandles caches the metric handles one migrator records into, so
// the hot path never does a map lookup. All handles are nil when the
// plane is disabled; their methods are nil-receiver no-ops, and every
// recording site is additionally gated on the single m.Obs pointer
// check so the disabled path costs one comparison.
type migObsHandles struct {
	phaseUs    [len(phaseNames)]*obs.Histogram
	freezeUs   *obs.Histogram
	downtimeUs *obs.Histogram
	roundBytes *obs.Histogram
	completed  *obs.Counter
	aborted    *obs.Counter
}

// SetObs attaches an observability plane to the migrator and
// pre-resolves the metric handles. Call before any migration starts; a
// nil o detaches the plane.
func (m *Migrator) SetObs(o *obs.Obs) {
	m.Obs = o
	r := o.M()
	for ph := PhaseConnect; int(ph) < len(phaseNames); ph++ {
		m.obsm.phaseUs[ph] = r.Histogram("mig/phase_"+ph.String()+"_us", obs.DurationBucketsUs)
	}
	m.obsm.freezeUs = r.Histogram("mig/freeze_us", obs.DurationBucketsUs)
	// Downtime is the strategy race's comparison axis: FreezeTime plus
	// (for post-copy) the demand-fault stall — the quantity the soak's
	// p99-downtime SLO bounds.
	m.obsm.downtimeUs = r.Histogram("mig/downtime_us", obs.DurationBucketsUs)
	m.obsm.roundBytes = r.Histogram("mig/precopy_round_bytes", obs.ByteBuckets)
	m.obsm.completed = r.Counter("mig/completed_total")
	m.obsm.aborted = r.Counter("mig/aborted_total")
}

// phaseTrack is the per-migration phase clock and span cursor: the
// sim-time of the previous phase event (feeding PhaseEvent.Since) and,
// when the plane is enabled, the migration's root span plus the child
// span of the phase currently underway. One lives in each outbound and
// each inbound.
type phaseTrack struct {
	last simtime.Time
	root *obs.Span
	cur  *obs.Span

	// lastWall is the self-profiling plane's wall timestamp of the
	// previous phase event (ns since the profiler base), so firePhase
	// can pair each phase's sim-time delta with the host time the
	// simulator spent computing it. Unused (zero) when Prof is nil.
	lastWall int64

	// strat is the row whose phase order the track walks: on the
	// destination of a row that pulls PhaseReinject is not terminal (the
	// pull/drain phases follow) and PhaseDrained closes the trace instead.
	strat *Strategy
}

// begin stamps the migration's start time and, when observing, opens
// the root span on this node's track. A valid ctx — the source span's
// coordinate carried over from another node (or a conductor's rebalance
// decision on this one) — parents the new span into that trace instead
// of rooting a fresh one; the zero context behaves exactly like Start.
func (pt *phaseTrack) begin(m *Migrator, strat *Strategy, name string, pid int, ctx obs.TraceContext) {
	pt.strat = strat
	pt.last = m.sched().Now()
	if m.Prof != nil {
		pt.lastWall = m.Prof.NowNs()
	}
	if m.Obs != nil {
		pt.root = m.Obs.Trace.StartLinked(m.Node.Name, name, ctx)
		pt.root.SetInt("pid", int64(pid))
	}
}

// firePhase advances one migration's phase machine: it records the
// per-phase latency (Time-Since) into the phase histogram, rolls the
// span cursor (close the previous phase's child span, open the next
// one; terminal phases close the root), then drives OnPhase with a
// fully-populated PhaseEvent. The span bookkeeping happens before the
// callback so a phase hook that crashes the node (faults.CrashAtPhase)
// still leaves a well-formed trace.
func (m *Migrator) firePhase(pt *phaseTrack, ph Phase, round, pid int) {
	now := m.sched().Now()
	since := pt.last
	pt.last = now
	if m.Node.FR != nil {
		m.Node.FR.Record(int64(now), "phase", ph.String(),
			int64(pid), int64(round), int64(now-since))
	}
	if m.Prof != nil {
		w := m.Prof.NowNs()
		m.Prof.Record(ph.String(), int64(now-since), w-pt.lastWall)
		pt.lastWall = w
	}
	if m.Obs != nil {
		m.obsm.phaseUs[ph].Observe(float64(now-since) / 1e3)
		pt.cur.CloseAt(now)
		switch ph {
		case PhaseDone:
			m.obsm.completed.Inc()
			pt.root.SetAttr("outcome", "done")
			pt.root.CloseAt(now)
			pt.cur = nil
		case PhaseAborted:
			m.obsm.aborted.Inc()
			pt.root.SetAttr("outcome", "aborted")
			pt.root.CloseAt(now)
			pt.cur = nil
		case PhaseReinject:
			pt.cur = pt.root.Child(ph.String())
			if pt.strat.pulls {
				// The restore is not over — the reinject child stays open
				// until PhaseDrained closes the trace.
				break
			}
			// Terminal on the destination otherwise: the remaining
			// reinject work runs synchronously inside this event, at the
			// same virtual instant.
			pt.cur.CloseAt(now)
			pt.root.CloseAt(now)
		case PhaseDrained:
			// Terminal on the destination of a row that pulls: the last
			// hole filled at this instant.
			pt.cur = pt.root.Child(ph.String())
			pt.cur.CloseAt(now)
			pt.root.SetAttr("outcome", "drained")
			pt.root.CloseAt(now)
			pt.cur = nil
		default:
			pt.cur = pt.root.Child(ph.String())
			switch ph {
			case PhasePrecopy, PhasePull, PhasePrefetch:
				pt.cur.SetInt("round", int64(round))
			}
		}
	}
	if m.OnPhase != nil {
		m.OnPhase(PhaseEvent{Phase: ph, Round: round, PID: pid,
			Node: m.Node.Name, Time: now, Since: since})
	}
}

// abandon closes a migration's spans without a terminal phase event —
// the inbound cleanup path (lease expiry, source abort), where no
// OnPhase consumer expects a source-side Aborted.
func (pt *phaseTrack) abandon() {
	pt.cur.Close()
	if pt.root.Open() {
		pt.root.SetAttr("outcome", "abandoned")
		pt.root.Close()
	}
}
