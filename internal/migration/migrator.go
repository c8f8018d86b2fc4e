package migration

import (
	"errors"
	"fmt"

	"dvemig/internal/capture"
	"dvemig/internal/ckpt"
	"dvemig/internal/epoch"
	"dvemig/internal/netsim"
	"dvemig/internal/netstack"
	"dvemig/internal/obs"
	"dvemig/internal/proc"
	"dvemig/internal/simprof"
	"dvemig/internal/simtime"
	"dvemig/internal/sockmig"
	"dvemig/internal/xlat"
)

// The cost model charges the CPU work of checkpointing that the
// simulated event loop would otherwise execute for free. Values are
// per-socket or per-operation and approximate a mid-2000s Opteron
// (§VI-A); they are what gives the freeze-time curves their paper-like
// scale — network transfer times come from the simulated links
// themselves. Calibrated once and shared by every experiment, so they
// are constants, not configuration.
const (
	// costSockSubtract: full state subtraction + serialization of one
	// socket.
	costSockSubtract simtime.Duration = 15 * 1e3 // 15µs
	// costSockTrack: hash-compare of one unchanged socket in an
	// incremental round.
	costSockTrack simtime.Duration = 8 * 1e3 // 8µs
	// costSockRestore: allocating, filling and rehashing one socket on the
	// destination.
	costSockRestore simtime.Duration = 25 * 1e3 // 25µs
	// costFreezeOverhead: signal delivery, thread barriers, leader
	// election.
	costFreezeOverhead simtime.Duration = 200 * 1e3 // 200µs

	// freezeThreshold ends the precopy loop: each iteration halves the
	// loop timeout, and the freeze phase starts when it drops below this
	// (20 ms in the paper, §III-A).
	freezeThreshold simtime.Duration = 20 * 1e6

	// migdRTOMin is the retransmission-timeout floor of both ends of every
	// migd connection (Linux's per-route rto_min): RFC 6298's clock
	// granularity G, one jiffy, plus one jiffy of margin. In-cluster RTT
	// samples read zero jiffies, so at the default TCP_RTO_MIN a segment
	// lost inside the freeze window would stall the frozen process for
	// 200 ms with no duplicate ACKs to recover it sooner. Application
	// sockets keep the default: migration must stay transparent to them.
	migdRTOMin = 2 * simtime.JiffyPeriod
)

// Config controls a migrator.
type Config struct {
	Strategy sockmig.Strategy
	// InitialTimeout is the first precopy loop timeout; each iteration
	// halves it and the freeze phase starts when it drops below
	// freezeThreshold.
	InitialTimeout simtime.Duration
	// EnablePrecopy false degrades pre-copy to stop-and-copy (ablation):
	// a strategy row's roundsAll runs none. Hybrid's one round stays — its
	// page directory is only sound after it.
	EnablePrecopy bool
	// EnableCapture false disables incoming-packet-loss prevention
	// (ablation: §VI ablation shows retransmission delays without it).
	EnableCapture bool
	// Deadline aborts a migration that has not completed in this much
	// (simulated) time; the process thaws and keeps running at the
	// source.
	Deadline simtime.Duration
	// ConnTimeout is the engine's liveness bound for the peer: it bounds
	// a single migd connection attempt and the commit grace alike.
	ConnTimeout simtime.Duration
	// ConnRetries is how many additional connection attempts follow a
	// timed-out or refused first attempt (0 = give up immediately).
	ConnRetries int
	// RetryBackoff is the wait before the first reconnection attempt;
	// it doubles on each subsequent attempt, capped at RetryBackoffMax.
	// Zero or negative falls back to 100 ms.
	RetryBackoff    simtime.Duration
	RetryBackoffMax simtime.Duration
	// RetryJitter adds up to this fraction of each backoff delay, drawn
	// from a per-migration rng seeded from (PID, start time) — fully
	// deterministic per run, but decorrelated across concurrent
	// migrations so retry storms spread out. Zero (the default) keeps
	// the exact historical schedule. The same BackoffPolicy drives the
	// control plane's retry timers (see ctlplane).
	RetryJitter float64
	// InboundLease bounds how long the destination keeps half-restored
	// state without hearing from the source. A crashed source sends no
	// FIN, so the connection never hangs up; the lease is the only
	// thing standing between a source crash mid-transfer and a leaked
	// shadow process. Renewed on every migd message; once the full freeze
	// image has arrived the restore completes regardless. Zero disables.
	// Post-copy reuses the same bound for peer silence during the pull
	// phase, on both sides: the destination's hole-y process dies if the
	// source goes silent, and the source reaps its frozen shell if the
	// destination does.
	InboundLease simtime.Duration
	// Mig selects the migration strategy — the memory-movement axis:
	// Precopy() (the default when nil), Postcopy() or Hybrid().
	// Orthogonal to Strategy, which picks the socket migration flavor.
	Mig *Strategy
	// PrefetchInterval/PrefetchBatch drive post-copy's background sweep:
	// every interval the source pushes up to batch not-yet-shipped pages
	// in canonical order. A zero interval disables the sweep (pure
	// demand paging).
	PrefetchInterval simtime.Duration
	PrefetchBatch    int
}

// DefaultConfig returns the paper's configuration with the incremental
// collective strategy.
func DefaultConfig() Config {
	return Config{
		Strategy:         sockmig.IncrementalCollective,
		InitialTimeout:   500 * 1e6, // 500ms
		EnablePrecopy:    true,
		EnableCapture:    true,
		Deadline:         30 * 1e9,
		ConnTimeout:      5 * 1e9,
		ConnRetries:      0,
		RetryBackoff:     100 * 1e6, // 100ms, doubling
		RetryBackoffMax:  1600 * 1e6,
		InboundLease:     10 * 1e9, // 10s of source silence discards the transfer
		PrefetchInterval: 2 * 1e6,  // 2ms between prefetch batches
		PrefetchBatch:    8,
	}
}

// Metrics reports one migration, the quantities Figs 4/5b/5c measure.
type Metrics struct {
	Strategy sockmig.Strategy
	// Mig names the migration strategy ("precopy", "postcopy", "hybrid").
	Mig string
	// PID / ProcName / ProcCPUDemand identify the migrated process and
	// its CPU demand at freeze time (experiments derive client counts
	// from it).
	PID           int
	ProcName      string
	ProcCPUDemand float64

	Start            simtime.Time
	FreezeStart      simtime.Time
	ResumeAt         simtime.Time
	FreezeTime       simtime.Duration
	TotalTime        simtime.Duration
	Rounds           int
	TCPMigrated      int
	UDPMigrated      int
	PrecopyMemBytes  uint64
	PrecopySockBytes uint64
	FreezeMemBytes   uint64
	FreezeSockBytes  uint64
	Captured         uint32
	Reinjected       uint32
	// MemPageBytes sums raw page content shipped over every channel —
	// pre-copy rounds, the freeze delta, demand pulls and prefetch
	// pushes — with geometry and framing excluded, so the three
	// strategies compare like for like on the bytes axis.
	MemPageBytes uint64
	// Post-copy pull accounting: pages the source shipped in total, by
	// demand pull, by prefetch push, and duplicate coords it refused to
	// re-ship (exactly-once guarantee; nonzero only under wire anomalies).
	PagesShipped    uint32
	PagesDemand     uint32
	PagesPrefetched uint32
	PullDuplicates  uint32
	// StallTime is the virtual time the destination's process loop spent
	// gated on outstanding demand faults; LastFillAt is when the last
	// hole filled (the degraded window's end). TotalDowntime for the
	// strategy race is FreezeTime + StallTime.
	StallTime  simtime.Duration
	LastFillAt simtime.Time
	// DegradedWindow is the total span the application ran degraded by
	// migration work: Start→FreezeStart (pre-copy rounds competing for
	// the link) plus ResumeAt→LastFillAt (running with holes). Pre-copy
	// has only the first term, post-copy essentially only the second,
	// hybrid both.
	DegradedWindow simtime.Duration
	// Retries counts migd reconnection attempts beyond the first.
	Retries int
	// TraceID identifies the migration's end-to-end trace when the
	// observability plane is enabled (zero otherwise): every span of
	// this migration — source phases, destination restore, conductor
	// decisions — carries it, and `report obsdiff` and `report
	// tracecheck` key on it.
	TraceID uint64
	// Aborted is set when the migration was rolled back; AbortReason
	// carries the triggering error and LocalReinjected the packets the
	// source-side capture filters fed back to the thawed sockets.
	Aborted         bool
	AbortReason     string
	LocalReinjected uint32
}

// Migrator is the per-node migration daemon (migd) plus the kernel
// module functionality (mig_mod): it listens for inbound migrations and
// initiates outbound ones.
type Migrator struct {
	Node    *proc.Node
	Config  Config
	Capture *capture.Service
	Xlat    *xlat.Client
	Transd  *xlat.Transd

	// Epochs is the node's ownership-epoch ratchet. Outbound migrations
	// stamp the current epoch of the migrated service into the migd
	// request, the translation rules and the capture filters; inbound
	// requests below the watermark are rejected (the sender's ownership
	// was superseded by a failover).
	Epochs *epoch.Table

	// LeaseExpired counts inbound migrations discarded because the source
	// went silent for longer than Config.InboundLease mid-transfer (for
	// post-copy this includes hole-y processes destroyed mid-pull).
	LeaseExpired uint64

	// DupFills counts page fills the destination's memory layer rejected
	// because the page was already resident — zero whenever the
	// exactly-once shipping guarantee holds.
	DupFills uint64

	// BadFills counts page fills rejected because the page a PAGE_RESP
	// carried was not PageSize long — zero with an honest source, which
	// ships whole frames.
	BadFills uint64

	// OnPageShip observes every page the post-copy pull server ships
	// (demand true for demand pulls, false for prefetch pushes) — the
	// property tests' shadow-model hook.
	OnPageShip func(c ckpt.PageCoord, demand bool)

	listener *netstack.TCPSocket

	// recvBufs recycles the receive buffers of this node's migd
	// connections: a soak cell opens thousands of short ones in a row.
	recvBufs bufList

	// encBufs recycles the encode scratch of this node's outbound
	// migrations the same way: drawn at the start, returned at the end.
	encBufs bufList

	// pageBuf is the pull server's reply scratch. A reply is encoded and
	// handed to the transport (which copies it) in one synchronous step,
	// so every outbound migration of the node shares the one buffer.
	pageBuf []byte

	// OnArrived fires when a migrated process resumes on this node.
	OnArrived func(p *proc.Process, m *Metrics)

	// OnPhase observes phase transitions of migrations this node takes
	// part in (source or destination side). The fault plane's crash
	// triggers attach here.
	OnPhase func(PhaseEvent)

	// Completed collects metrics of finished outbound migrations.
	Completed []*Metrics

	// Aborted collects metrics of rolled-back outbound migrations.
	Aborted []*Metrics

	// Obs is the node's observability plane (nil = disabled; every
	// recording site checks this one pointer and falls through). Attach
	// via SetObs so the metric handles in obsm are pre-resolved.
	Obs  *obs.Obs
	obsm migObsHandles

	// Prof, when attached, records per-phase wall-vs-sim skew into the
	// self-profiling plane: how much host time the simulator spent
	// computing each phase against the virtual time the phase covered.
	// Wall readings are recorded only — they never feed back into
	// sim-time decisions, so profiled runs stay bit-identical. Nil (the
	// default) costs one pointer comparison per phase event.
	Prof *simprof.SkewProf

	// active tracks the in-flight outbound migration per PID: the
	// second Migrate of a process already leaving is rejected (no
	// double-drive), and Cancel finds its target here. Entries are
	// removed synchronously when the migration ends — the same instant the
	// done callback fires, never at a later tick.
	active map[int]*outbound
}

// NewMigrator starts the migration service on a node: the migd listener
// on the in-cluster interface, the capture service, the translation
// daemon and the translation request client.
func NewMigrator(n *proc.Node, cfg Config) (*Migrator, error) {
	m := &Migrator{Node: n, Config: cfg, Epochs: epoch.NewTable(), active: make(map[int]*outbound)}
	m.Capture = capture.NewService(n.Stack)
	m.Xlat = xlat.NewClient(n.Stack, n.LocalIP)
	var err error
	if m.Transd, err = xlat.StartTransd(n.Stack, n.LocalIP); err != nil {
		return nil, err
	}
	m.listener = netstack.NewTCPSocket(n.Stack)
	if err := m.listener.Listen(n.LocalIP, MigdPort); err != nil {
		return nil, err
	}
	m.listener.OnAccept = func(ch *netstack.TCPSocket) {
		ch.RTOMin = migdRTOMin
		ib := &inbound{m: m}
		ib.conn = newConn(ch, ib, &m.recvBufs)
	}
	return m, nil
}

// Stop shuts the migration service down: the migd listener closes and
// no further inbound migrations are accepted (a node preparing to leave
// calls this after draining).
func (m *Migrator) Stop() {
	m.listener.Close()
}

func (m *Migrator) sched() *simtime.Scheduler { return m.Node.Sched }

// Migrate live-migrates process p to the node at dest (in-cluster IP).
// done fires with the metrics on completion or an error on failure.
func (m *Migrator) Migrate(p *proc.Process, dest netsim.Addr, done func(*Metrics, error)) {
	m.MigrateTraced(p, dest, obs.TraceContext{}, done)
}

// MigrateTraced is Migrate with an explicit causal parent: the lb
// conductor passes its rebalance-decision span's context so the whole
// migration — including the destination's restore tree — parents into
// the decision that caused it. The zero context roots a fresh trace.
func (m *Migrator) MigrateTraced(p *proc.Process, dest netsim.Addr, ctx obs.TraceContext, done func(*Metrics, error)) {
	m.MigrateWith(p, dest, m.Config.Mig, ctx, done)
}

// MigrateWith is MigrateTraced with an explicit memory-movement
// strategy for this one migration, overriding Config.Mig — the control
// plane routes per-object strategy choices through here without
// mutating the shared config under concurrent migrations. A nil strat
// is the table's first row.
func (m *Migrator) MigrateWith(p *proc.Process, dest netsim.Addr, strat *Strategy, ctx obs.TraceContext, done func(*Metrics, error)) {
	if p.Node != m.Node {
		done(nil, fmt.Errorf("migration: process %d not on node %s", p.PID, m.Node.Name))
		return
	}
	if p.State != proc.ProcRunning {
		done(nil, fmt.Errorf("migration: process %d not running", p.PID))
		return
	}
	if m.active[p.PID] != nil {
		done(nil, fmt.Errorf("migration: process %d already migrating", p.PID))
		return
	}
	if strat == nil {
		strat = &strategies[0]
	}
	ob := &outbound{
		m: m, p: p, dest: dest, done: done, strat: strat,
		sockTracker: sockmig.NewTracker(),
		timeout:     m.Config.InitialTimeout,
		encBuf:      m.encBufs.get(),
		metrics: &Metrics{Strategy: m.Config.Strategy, Mig: strat.name,
			Start: m.sched().Now(), PID: p.PID, ProcName: p.Name},
	}
	m.active[p.PID] = ob
	ob.pt.begin(m, strat, "migration", p.PID, ctx)
	ob.pt.root.SetAttr("strategy", m.Config.Strategy.String())
	ob.pt.root.SetAttr("mig_strategy", strat.name)
	ob.metrics.TraceID = ob.pt.root.Context().Trace
	ob.dial()
	if ob.over() {
		return
	}
	if m.Config.Deadline > 0 {
		m.sched().AfterCall(m.Config.Deadline, "migd.deadline", deadlineCall, ob, nil)
	}
}

// deadlineCall and commitGraceCall are the deadline's first and graced
// firings (closure-free, like every scheduled migration step).
func deadlineCall(a0, _ any)    { a0.(*outbound).deadline(false) }
func commitGraceCall(a0, _ any) { a0.(*outbound).deadline(true) }

// deadline is the overall bound: a destination that dies mid-migration
// must not leave the process frozen forever. Refused after the handover
// — once the destination runs the process the source can never roll
// back, and the pull watch bounds the remaining phase. If the deadline
// lands inside the commit window (final image sent, ack not yet back),
// rolling back immediately would race a live destination's restore and
// run the process twice; instead the ack gets one bounded grace period,
// after which the destination is presumed dead and the rollback is safe.
func (ob *outbound) deadline(graced bool) {
	if ob.st >= obServing {
		return
	}
	if ob.st == obCommitted && !graced {
		// ConnTimeout is the engine's liveness bound for the peer — the
		// right budget for "will the restore ack ever come".
		ob.m.sched().AfterCall(ob.m.Config.ConnTimeout, "migd.commit-grace", commitGraceCall, ob, nil)
		return
	}
	ob.end(errors.New("migration: deadline exceeded"))
}

// Cancel aborts the in-flight outbound migration of pid, rolling the
// process back to full service on this node (the PR-1 rollback path:
// thaw, rehash, local reinjection, xlat undo, MsgAbort to the peer).
// Returns false when there is nothing to cancel or the migration is
// past a point of no return: the post-copy handover (the destination
// already runs the process), or the commit fence (the final image is
// on the wire and the destination restores unconditionally when it
// lands — a rollback now could leave the process running on both
// nodes). The caller must treat the migration as committed.
func (m *Migrator) Cancel(pid int, reason string) bool {
	ob := m.active[pid]
	if ob == nil || ob.st >= obCommitted {
		return false
	}
	ob.end(fmt.Errorf("migration: canceled: %s", reason))
	return true
}

// Migrating reports whether pid has an in-flight outbound migration.
func (m *Migrator) Migrating(pid int) bool { return m.active[pid] != nil }
