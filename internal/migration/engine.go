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

// CostModel charges the CPU work of checkpointing that the simulated
// event loop would otherwise execute for free. Values are per-socket or
// per-operation and approximate a mid-2000s Opteron (§VI-A); they are
// what gives the freeze-time curves their paper-like scale — network
// transfer times come from the simulated links themselves.
type CostModel struct {
	// SockSubtract: full state subtraction + serialization of one socket.
	SockSubtract simtime.Duration
	// SockTrack: hash-compare of one unchanged socket in an incremental
	// round.
	SockTrack simtime.Duration
	// SockRestore: allocating, filling and rehashing one socket on the
	// destination.
	SockRestore simtime.Duration
	// FreezeOverhead: signal delivery, thread barriers, leader election.
	FreezeOverhead simtime.Duration
}

// DefaultCosts is the calibrated model.
var DefaultCosts = CostModel{
	SockSubtract:   15 * 1e3, // 15µs
	SockTrack:      8 * 1e3,  // 8µs
	SockRestore:    25 * 1e3, // 25µs
	FreezeOverhead: 200 * 1e3,
}

// Config controls a migrator.
type Config struct {
	Strategy sockmig.Strategy
	// InitialTimeout is the first precopy loop timeout; each iteration
	// halves it and the freeze phase starts when it drops below
	// FreezeThreshold (20 ms in the paper, §III-A).
	InitialTimeout  simtime.Duration
	FreezeThreshold simtime.Duration
	// EnablePrecopy false degrades to stop-and-copy (ablation).
	EnablePrecopy bool
	// EnableCapture false disables incoming-packet-loss prevention
	// (ablation: §VI ablation shows retransmission delays without it).
	EnableCapture bool
	// Deadline aborts a migration that has not completed in this much
	// (simulated) time; the process thaws and keeps running at the
	// source.
	Deadline simtime.Duration
	// ConnTimeout bounds a single migd connection attempt; zero or
	// negative falls back to the historical 5 s default.
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
	// FIN, so the connection's OnClose never fires; the lease is the only
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
	Mig Strategy
	// PrefetchInterval/PrefetchBatch drive post-copy's background sweep:
	// every interval the source pushes up to batch not-yet-shipped pages
	// in canonical order. A zero interval disables the sweep (pure
	// demand paging).
	PrefetchInterval simtime.Duration
	PrefetchBatch    int
	Costs            CostModel
}

// DefaultConfig returns the paper's configuration with the incremental
// collective strategy.
func DefaultConfig() Config {
	return Config{
		Strategy:         sockmig.IncrementalCollective,
		InitialTimeout:   500 * 1e6, // 500ms
		FreezeThreshold:  20 * 1e6,  // 20ms
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
		Costs:            DefaultCosts,
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
	// decisions — carries it, and obsdiff/tracecheck key on it.
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

	// OnPageShip observes every page the post-copy pull server ships
	// (demand true for demand pulls, false for prefetch pushes) — the
	// property tests' shadow-model hook.
	OnPageShip func(c ckpt.PageCoord, demand bool)

	listener *netstack.TCPSocket

	// recvBufs recycles the receive buffers of this node's migd
	// connections: a soak cell opens thousands of short ones in a row.
	recvBufs bufList

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
	// removed synchronously on finish/fail — the same instant the done
	// callback fires, never at a later tick.
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
		ib := &inbound{m: m, conn: m.newConn(ch)}
		ib.conn.OnMsg = ib.onMsg
		ib.conn.OnClose = ib.cleanup
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
	m.MigrateWith(p, dest, m.Config.mig(), ctx, done)
}

// MigrateWith is MigrateTraced with an explicit memory-movement
// strategy for this one migration, overriding Config.Mig — the control
// plane routes per-object strategy choices through here without
// mutating the shared config under concurrent migrations.
func (m *Migrator) MigrateWith(p *proc.Process, dest netsim.Addr, strat Strategy, ctx obs.TraceContext, done func(*Metrics, error)) {
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
		strat = Precopy()
	}
	ob := &outbound{
		m: m, p: p, dest: dest, done: done, strat: strat,
		memTracker:  ckpt.NewTracker(),
		sockTracker: sockmig.NewTracker(),
		timeout:     m.Config.InitialTimeout,
		metrics: &Metrics{Strategy: m.Config.Strategy, Mig: strat.Name(),
			Start: m.sched().Now(), PID: p.PID, ProcName: p.Name},
	}
	m.active[p.PID] = ob
	ob.pt.begin(m, "migration", p.PID, ctx)
	ob.pt.root.SetAttr("strategy", m.Config.Strategy.String())
	ob.pt.root.SetAttr("mig_strategy", strat.Name())
	ob.metrics.TraceID = ob.pt.root.Context().Trace
	ob.dial()
	if ob.failed {
		return
	}
	// Overall deadline: a destination that dies mid-migration must not
	// leave the process frozen forever. Refused after the post-copy
	// handover — once the destination runs the process the source can
	// never roll back, and the pull watchdog bounds the remaining phase.
	// If the deadline lands inside the commit window (final image sent,
	// ack not yet back), rolling back immediately would race a live
	// destination's restore and run the process twice; instead the ack
	// gets one bounded grace period, after which the destination is
	// presumed dead and the rollback is safe.
	if m.Config.Deadline > 0 {
		var onDeadline func(graced bool)
		onDeadline = func(graced bool) {
			if ob.finished || ob.failed || ob.handedOver {
				return
			}
			if ob.commitSent && !graced {
				// ConnTimeout is the engine's liveness bound for the peer —
				// the right budget for "will the restore ack ever come".
				grace := m.Config.ConnTimeout
				if grace <= 0 {
					grace = m.Config.InboundLease
				}
				if grace <= 0 {
					grace = 5 * 1e9
				}
				m.sched().After(grace, "migd.commit-grace", func() { onDeadline(true) })
				return
			}
			ob.fail(errors.New("migration: deadline exceeded"))
		}
		m.sched().After(m.Config.Deadline, "migd.deadline", func() { onDeadline(false) })
	}
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
	if ob == nil || ob.failed || ob.finished || ob.handedOver || ob.commitSent {
		return false
	}
	ob.fail(fmt.Errorf("migration: canceled: %s", reason))
	return true
}

// Migrating reports whether pid has an in-flight outbound migration.
func (m *Migrator) Migrating(pid int) bool { return m.active[pid] != nil }

// dial opens one migd connection attempt. All attempt-scoped callbacks
// capture the generation counter so a late failure of an abandoned
// attempt cannot interfere with its successor.
func (ob *outbound) dial() {
	ob.dialGen++
	gen := ob.dialGen
	sk := netstack.NewTCPSocket(ob.m.Node.Stack)
	// Stamp the migd control connection with the migration's causal
	// coordinate: every packet it emits carries the (trace, span) pair as
	// out-of-band metadata, so packet-level tooling can attribute
	// migration-critical traffic to the end-to-end trace.
	if c := ob.pt.root.Context(); c.Valid() {
		sk.Trace = &netsim.TraceRef{Trace: c.Trace, Span: c.Span}
	}
	// The outbound leg carries checkpoint transfer until (for post-copy)
	// handover restamps it to the pull class.
	sk.Class = netsim.ClassCheckpoint
	ob.conn = ob.m.newConn(sk)
	ob.conn.OnMsg = ob.onMsg
	sk.OnReadable = func() {
		if gen != ob.dialGen {
			return
		}
		ob.conn.onReadable()
		if sk.State == netstack.TCPEstablished && !ob.started {
			ob.started = true
			ob.m.firePhase(&ob.pt, PhaseConnect, 0, ob.p.PID)
			ob.start()
		}
	}
	ob.conn.OnClose = func() {
		if gen != ob.dialGen {
			return
		}
		if !ob.started {
			ob.connFailed(gen, errors.New("migration: destination refused the connection"))
			return
		}
		if !ob.finished {
			ob.fail(errors.New("migration: destination closed the connection"))
		}
	}
	if err := sk.Connect(ob.dest, MigdPort); err != nil {
		ob.fail(err)
		return
	}
	// Guard against an unreachable destination. The timeout and the
	// retry/backoff schedule come from the config (satellite fix: this
	// used to be a hard-coded 5 s with no retry).
	timeout := ob.m.Config.ConnTimeout
	if timeout <= 0 {
		timeout = 5 * 1e9
	}
	ob.m.sched().After(timeout, "migd.conn-timeout", func() {
		ob.connFailed(gen, errors.New("migration: destination unreachable"))
	})
}

// connFailed handles a failed connection attempt: retry with exponential
// backoff while the budget lasts, then abort.
func (ob *outbound) connFailed(gen int, err error) {
	if gen != ob.dialGen || ob.started || ob.failed || ob.finished {
		return
	}
	if ob.attempts >= ob.m.Config.ConnRetries {
		ob.fail(err)
		return
	}
	ob.attempts++
	ob.metrics.Retries++
	ob.dialGen++ // invalidate the abandoned attempt's callbacks
	ob.conn.Close()
	if ob.rng == nil && ob.m.Config.RetryJitter > 0 {
		// Seeded from the migration's identity (PID, start instant):
		// deterministic per run, decorrelated across migrations.
		ob.rng = simtime.NewRand(uint64(ob.p.PID)<<32 ^ uint64(ob.metrics.Start) ^ 0x6d696764)
	}
	backoff := ob.m.Config.retryPolicy().Delay(ob.attempts, ob.rng)
	ob.m.sched().After(backoff, "migd.conn-retry", func() {
		if ob.failed || ob.finished || ob.started {
			return
		}
		ob.dial()
	})
}

// --- source side ---------------------------------------------------------

type outbound struct {
	m    *Migrator
	p    *proc.Process
	dest netsim.Addr
	conn *Conn
	done func(*Metrics, error)

	memTracker  *ckpt.Tracker
	sockTracker *sockmig.Tracker
	timeout     simtime.Duration
	metrics     *Metrics
	token       uint64
	epoch       uint64 // ownership epoch of the migrated service

	// strat is this migration's memory-movement strategy (frozen at
	// start so a config change mid-flight cannot switch modes); rng
	// feeds the retry backoff jitter, lazily seeded on first retry.
	strat Strategy
	rng   *simtime.Rand

	// encBuf / sockEncBuf are per-migration scratch buffers for delta
	// serialization: the transport copies payloads into the socket send
	// buffer, so each precopy round may reuse the previous round's
	// allocation instead of growing the heap.
	encBuf     []byte
	sockEncBuf []byte

	// chunkStream numbers outgoing chunk streams (chunkpipe.go); the id
	// lets the destination reject frames from an abandoned stream.
	chunkStream uint32

	started  bool
	acked    bool // MIGRATE_ACK arrived; the strategy runs
	frozen   bool
	failed   bool
	finished bool

	// pt is the migration's phase clock and span cursor.
	pt phaseTrack

	// dialGen/attempts drive the reconnect machinery; callbacks of an
	// abandoned attempt compare their captured generation and bail out.
	dialGen  int
	attempts int

	// rollback records the inverse of every translation request sent
	// during setupTranslation, so an abort can undo partial installs.
	rollback []xlatOp

	// localFilters capture packets for this process's connections on the
	// *source* while its sockets are unhashed: on success they are
	// dropped (the destination's own filters did the real work), on
	// abort they are reinjected into the thawed sockets so nothing that
	// arrived mid-transfer is lost.
	localFilters []*capture.Filter

	transferFired bool
	onCaptureAck  func()

	// commitSent marks the source-side commit fence: the final image's
	// last frame is on the wire. The destination
	// completes its restore unconditionally once that image arrives, so
	// from here a voluntary rollback (Cancel, the deadline's first
	// firing) could leave the process running on both nodes. Only
	// evidence of a dead destination — connection close, or the commit
	// grace expiring with no ack — may roll back past this fence.
	commitSent bool

	// Post-copy pull-server state (postcopy.go). handedOver marks the
	// point of no return: the destination runs the process, so fail()
	// routes to orphan() and the deadline stands down.
	handedOver      bool
	resumeAt        simtime.Time
	pullDir         *ckpt.PageDir
	shipped         map[ckpt.PageCoord]bool
	shipCursor      int
	pullsServed     int
	prefetchBatches int
	pullWatch       *simtime.Event

	// Freeze-time attribution (paper Fig 5b's breakdown axis): the three
	// directly measurable components of the freeze window accumulate
	// here — coordination (signal/freeze overhead plus capture-filter
	// handshakes), xlat (translation-rule installs on peers), and socket
	// serialization (per-socket subtract cost). Page copy — shipping the
	// freeze image and the destination's restore — is the remainder of
	// FreezeTime, computed at finish. Plain duration adds on the hot
	// path; the histograms are only resolved (per connection count) once
	// per completed migration when the plane is enabled.
	attrCoord simtime.Duration
	attrXlat  simtime.Duration
	attrSer   simtime.Duration
}

// mig returns the outbound's pinned strategy.
func (ob *outbound) mig() Strategy {
	if ob.strat == nil {
		return Precopy()
	}
	return ob.strat
}

// xlatOp is one translation request to (un)do during rollback.
type xlatOp struct {
	peer netsim.Addr
	add  bool
	rule xlat.Rule
}

func (ob *outbound) start() {
	ob.token = registerBehavior(&ckpt.Behavior{Tick: ob.p.Tick, SigHandlers: ob.p.SigHandlers})
	ob.epoch = ob.m.Epochs.Current(ob.p.Name)
	rctx := ob.pt.root.Context()
	req := migrateReq{PID: ob.p.PID, Strategy: ob.m.Config.Strategy,
		Mode: ob.mig().mode(), Token: ob.token,
		Epoch: ob.epoch, TraceID: rctx.Trace, SpanID: rctx.Span, Name: ob.p.Name}
	ob.send(MsgMigrateReq, req.encode())
}

func (ob *outbound) send(t MsgType, payload []byte) {
	if err := ob.conn.Send(t, payload); err != nil {
		ob.fail(err)
	}
}

// fail aborts the migration and rolls the source back to a fully
// functional state: sockets rehash, packets captured while they were
// disabled reinject locally, translation rules installed on in-cluster
// peers are undone, the real-time loop restarts, and the destination —
// if it still lives — is told to discard its partial state via
// MsgAbort. The rollback order matters: rehash before reinject (so the
// demux finds the sockets again), reinject before the loop restarts (so
// the application observes a contiguous stream).
func (ob *outbound) fail(err error) {
	if ob.failed || ob.finished {
		return
	}
	if ob.handedOver {
		// Past the post-copy point of no return: the process runs (or
		// died) remotely, so there is nothing to thaw — reap the shell.
		ob.orphan(err)
		return
	}
	ob.failed = true
	if ob.p.State == proc.ProcFrozen {
		// Thaw: migration aborted, the process keeps running here. Its
		// sockets were disabled at the freeze point; bring them back.
		ob.p.State = proc.ProcRunning
		tcp, udp := ob.p.Sockets()
		for _, sk := range tcp {
			if sk.Unhashed() {
				_ = sk.Rehash()
				sk.RestartRetransTimer()
			}
		}
		for _, us := range udp {
			if us.Unhashed() {
				_ = us.Rehash()
			}
		}
		// Feed back everything the wire delivered while the sockets were
		// out of the hash tables.
		for _, f := range ob.localFilters {
			ob.metrics.LocalReinjected += uint32(f.Captured)
			if n, rerr := ob.m.Capture.ReinjectAndDisable(f); rerr != nil {
				_ = n // filter already gone; nothing to reinject
			}
		}
		ob.localFilters = nil
		// Undo the translation rules: peers must stop rewriting this
		// process's flows toward the dead destination. Re-installing a
		// rule whose NewAddr equals the flow's real current home either
		// removes it (identity) or retargets it back (chained
		// migrations); replica rules shipped to the destination are
		// removed outright. Requests to a crashed destination simply
		// time out in the translation client.
		for _, op := range ob.rollback {
			ob.m.Xlat.Request(op.peer, op.add, op.rule, func(error) {})
		}
		ob.rollback = nil
		if ob.p.LoopPeriod > 0 && ob.p.Tick != nil {
			ob.m.Node.StartLoop(ob.p, ob.p.LoopPeriod)
		}
	} else {
		for _, f := range ob.localFilters {
			ob.m.Capture.Drop(f)
		}
		ob.localFilters = nil
	}
	takeBehavior(ob.token)
	delete(ob.m.active, ob.p.PID)
	ob.conn.Send(MsgAbort, nil)
	ob.conn.Close()
	ob.metrics.Aborted = true
	ob.metrics.AbortReason = err.Error()
	ob.m.Aborted = append(ob.m.Aborted, ob.metrics)
	ob.m.firePhase(&ob.pt, PhaseAborted, 0, ob.p.PID)
	if ob.done != nil {
		ob.done(ob.metrics, err)
	}
}

func (ob *outbound) onMsg(t MsgType, payload []byte) {
	if ob.failed || ob.finished {
		return
	}
	st := ob.state()
	if !accepts(obAccepts[st], t) {
		ob.fail(&protocolError{t: t, state: obStateNames[st]})
		return
	}
	if ob.handedOver {
		ob.renewPullWatch()
	}
	switch t {
	case MsgMigrateAck:
		ob.acked = true
		ob.mig().start(ob)
	case MsgCaptureAck:
		if cb := ob.onCaptureAck; cb != nil {
			ob.onCaptureAck = nil
			cb()
		}
	case MsgRestoreDone:
		rd, err := decodeRestoreDone(payload)
		if err != nil {
			ob.fail(err)
			return
		}
		ob.finish(rd)
	case MsgAbort:
		if len(payload) > 0 {
			ob.fail(fmt.Errorf("%w: %s", errAborted, payload))
		} else {
			ob.fail(errAborted)
		}
	case MsgResumed, MsgPageReq, MsgPullsDone:
		if !ob.mig().onSourceMsg(ob, t, payload) {
			ob.fail(fmt.Errorf("migration: unexpected %s for %s strategy",
				t, ob.mig().Name()))
		}
	}
}

// precopyRound runs one iteration of the Fig 3 helper-thread loop: dump
// address-space changes (and, for the incremental strategy, socket
// changes), then sleep for the current timeout while the application
// keeps running; halve the timeout and either iterate or freeze.
func (ob *outbound) precopyRound() {
	ob.metrics.Rounds++
	ob.m.firePhase(&ob.pt, PhasePrecopy, ob.metrics.Rounds, ob.p.PID)
	if ob.failed || ob.finished {
		return // a phase hook may have aborted the migration
	}
	trackCost := ob.shipDeltaRound()
	wait := ob.timeout + trackCost
	ob.timeout /= 2
	ob.m.sched().After(wait, "migd.precopy", func() {
		if ob.failed || ob.finished {
			return
		}
		if ob.timeout < ob.m.Config.FreezeThreshold {
			ob.freeze()
		} else {
			ob.precopyRound()
		}
	})
}

// shipDeltaRound dumps one round of address-space changes (and, for
// the incremental socket strategy, socket changes) to the destination,
// returning the socket tracking cost the round incurred. Shared by the
// pre-copy loop and hybrid's single bounded round.
func (ob *outbound) shipDeltaRound() simtime.Duration {
	d := ob.memTracker.Delta(ob.p.AS)
	if d.Empty() {
		// Quiescent round: nothing changed since the last scan, so no
		// delta stream crosses the wire (mirroring the socket delta's
		// emptiness guard below). Rounds still counts — the loop ran —
		// but the round contributes zero delta bytes.
		if ob.m.Obs != nil {
			ob.m.obsm.roundBytes.Observe(0)
			ob.pt.cur.SetInt("mem_bytes", 0)
		}
	} else {
		ob.encBuf = d.EncodeInto(ob.encBuf)
		ob.metrics.PrecopyMemBytes += uint64(len(ob.encBuf))
		ob.metrics.MemPageBytes += d.PageDataBytes()
		if ob.m.Obs != nil {
			ob.m.obsm.roundBytes.Observe(float64(len(ob.encBuf)))
			ob.pt.cur.SetInt("mem_bytes", int64(len(ob.encBuf)))
		}
		ob.sendPayload(chunkKindMemDelta, ob.encBuf, false)
	}
	var trackCost simtime.Duration
	if ob.m.Config.Strategy == sockmig.IncrementalCollective {
		sd := ob.sockTracker.Delta(ob.p, false)
		ntcp, nudp := ob.p.Sockets()
		trackCost = simtime.Duration(len(ntcp)+len(nudp)) * ob.m.Config.Costs.SockTrack
		if !sd.Empty() {
			ob.sockEncBuf = sd.EncodeInto(ob.sockEncBuf)
			ob.metrics.PrecopySockBytes += uint64(len(ob.sockEncBuf))
			ob.send(MsgSockDelta, ob.sockEncBuf)
		}
	}
	return trackCost
}

// freeze enters the freeze phase: signal the application (threads abandon
// system calls and return to userspace, leaving backlog and prequeue
// empty), stop the real-time loop, then run capture setup, address
// translation and socket migration according to the strategy.
func (ob *outbound) freeze() {
	ob.frozen = true
	ob.m.firePhase(&ob.pt, PhaseFreeze, 0, ob.p.PID)
	if ob.failed || ob.finished {
		return
	}
	ob.metrics.FreezeStart = ob.m.sched().Now()
	ob.metrics.ProcCPUDemand = ob.p.CPUDemand
	ob.p.Signal(proc.SIGCKPT)
	ob.p.State = proc.ProcFrozen
	ob.m.Node.StopLoop(ob.p)
	ob.m.sched().After(ob.m.Config.Costs.FreezeOverhead, "migd.freeze", func() {
		ob.attrCoord += ob.m.Config.Costs.FreezeOverhead
		ob.setupTranslation(func() {
			switch ob.m.Config.Strategy {
			case sockmig.Iterative:
				tcp, udp := sockmig.SocketsInFDOrder(ob.p)
				ob.iterativeStep(tcp, udp)
			default:
				ob.collectivePhase1()
			}
		})
	})
}

// setupTranslation installs translation filters on the peers of all
// in-cluster connections (§III-C): the peer rewrites packets addressed to
// the connection's original identity so they reach the destination node.
func (ob *outbound) setupTranslation(then func()) {
	xlatStart := ob.m.sched().Now()
	var rules []xlatOp
	tcp, _ := ob.p.Sockets()
	for _, sk := range tcp {
		if sk.State != netstack.TCPEstablished || !ob.inCluster(sk.RemoteIP) {
			continue
		}
		oldAddr := sk.OrigLocalIP
		if oldAddr == 0 {
			oldAddr = sk.LocalIP
		}
		// The socket names the peer by its *original* address; if the
		// peer has itself migrated, our local translation table knows
		// its current home — send the request there (both-ends
		// migration support).
		peer := sk.RemoteIP
		if cur, ok := ob.m.Transd.Translator().LookupPeer(netsim.ProtoTCP,
			sk.RemoteIP, sk.LocalPort, sk.RemotePort); ok {
			peer = cur
		}
		rules = append(rules, xlatOp{
			peer: peer, add: true,
			rule: xlat.Rule{Proto: netsim.ProtoTCP, OldAddr: oldAddr, NewAddr: ob.dest,
				LocalPort: sk.RemotePort, RemotePort: sk.LocalPort, Epoch: ob.epoch},
		})
		// The inverse, should the migration abort: point the peer's rule
		// back at the flow's real current home. If the socket never
		// migrated before, that is an identity mapping the translator
		// collapses into a removal; for a chained migration it retargets
		// the rule back to this node.
		ob.rollback = append(ob.rollback, xlatOp{
			peer: peer, add: true,
			rule: xlat.Rule{Proto: netsim.ProtoTCP, OldAddr: oldAddr, NewAddr: sk.LocalIP,
				LocalPort: sk.RemotePort, RemotePort: sk.LocalPort, Epoch: ob.epoch},
		})
		// If this node is translating the socket's own outgoing traffic
		// (its peer migrated before), the rule must move with the socket:
		// replicate it onto the destination node.
		if local, ok := ob.m.Transd.Translator().FlowRule(netsim.ProtoTCP,
			sk.RemoteIP, sk.LocalPort, sk.RemotePort); ok {
			rules = append(rules, xlatOp{peer: ob.dest, add: true, rule: local})
			ob.rollback = append(ob.rollback, xlatOp{peer: ob.dest, add: false, rule: local})
		}
	}
	if len(rules) == 0 {
		then()
		return
	}
	pending := len(rules)
	var firstErr error
	for _, r := range rules {
		ob.m.Xlat.Request(r.peer, r.add, r.rule, func(err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
			pending--
			if pending == 0 {
				ob.attrXlat += ob.m.sched().Now() - xlatStart
				if firstErr != nil {
					ob.fail(firstErr)
					return
				}
				if ob.failed || ob.finished {
					return
				}
				then()
			}
		})
	}
}

func (ob *outbound) inCluster(addr netsim.Addr) bool {
	const hostBits = 32 - proc.LocalNetBits
	return addr>>hostBits == proc.LocalNet>>hostBits
}

// iterativeStep migrates sockets one by one: capture sync, disable,
// subtract, transfer — repeated per connection (§III-C's "natural way",
// whose overhead motivated the collective design).
func (ob *outbound) iterativeStep(tcp []*netstack.TCPSocket, udp []*netstack.UDPSocket) {
	if !ob.transferFired {
		ob.transferFired = true
		ob.m.firePhase(&ob.pt, PhaseTransfer, 0, ob.p.PID)
	}
	if ob.failed || ob.finished {
		return
	}
	if len(tcp) == 0 && len(udp) == 0 {
		ob.mig().finalTransfer(ob, nil)
		return
	}
	var key netsim.FlowKey
	var fd int
	if len(tcp) > 0 {
		sk := tcp[0]
		fd = sockmig.FDOf(ob.p, sk)
		if sk.State == netstack.TCPListen {
			key = netsim.FlowKey{LocalPort: sk.LocalPort, Proto: netsim.ProtoTCP}
		} else {
			key = netsim.FlowKey{RemoteIP: sk.RemoteIP, RemotePort: sk.RemotePort,
				LocalPort: sk.LocalPort, Proto: netsim.ProtoTCP}
		}
	} else {
		us := udp[0]
		fd = sockmig.FDOfUDP(ob.p, us)
		key = netsim.FlowKey{LocalPort: us.LocalPort, Proto: netsim.ProtoUDP}
	}
	transfer := func() {
		// Subtract this one socket's state and ship it in its own
		// message (the per-socket computation/transmission interleaving).
		ob.m.sched().After(ob.m.Config.Costs.SockSubtract, "migd.subtract", func() {
			if ob.failed || ob.finished {
				return
			}
			ob.attrSer += ob.m.Config.Costs.SockSubtract
			// Anything arriving for this connection while it is out of
			// the hash tables is captured locally: reinjected on abort,
			// discarded on success (the destination's filter has its own
			// copy via the broadcast).
			if ob.m.Config.EnableCapture {
				ob.localFilters = append(ob.localFilters, ob.m.Capture.EnableEpoch(key, ob.epoch))
			}
			var sd *sockmig.SockDelta
			if len(tcp) > 0 {
				sk := tcp[0]
				sk.Unhash()
				sd = sockmig.SingleTCP(fd, sk)
				ob.metrics.TCPMigrated++
			} else {
				us := udp[0]
				us.Unhash()
				sd = sockmig.SingleUDP(fd, us)
				ob.metrics.UDPMigrated++
			}
			ob.sockEncBuf = sd.EncodeInto(ob.sockEncBuf)
			ob.metrics.FreezeSockBytes += uint64(len(ob.sockEncBuf))
			ob.send(MsgSockDelta, ob.sockEncBuf)
			if len(tcp) > 0 {
				ob.iterativeStep(tcp[1:], udp)
			} else {
				ob.iterativeStep(tcp, udp[1:])
			}
		})
	}
	if ob.m.Config.EnableCapture {
		capStart := ob.m.sched().Now()
		ob.onCaptureAck = func() {
			ob.attrCoord += ob.m.sched().Now() - capStart
			transfer()
		}
		ob.send(MsgCaptureReq, encodeCaptureReq([]netsim.FlowKey{key}))
	} else {
		transfer()
	}
}

// collectivePhase1 ships the capture details of all connections in one
// message and waits for a single acknowledgement.
func (ob *outbound) collectivePhase1() {
	if ob.m.Config.EnableCapture {
		keys := sockmig.CaptureKeys(ob.p)
		capStart := ob.m.sched().Now()
		ob.onCaptureAck = func() {
			ob.attrCoord += ob.m.sched().Now() - capStart
			ob.collectivePhase2()
		}
		ob.send(MsgCaptureReq, encodeCaptureReq(keys))
	} else {
		ob.collectivePhase2()
	}
}

// collectivePhase2 disables all sockets, subtracts their state into one
// unified buffer and transfers it in one go; the incremental variant
// subtracts only the sections changed since the last precopy round.
func (ob *outbound) collectivePhase2() {
	ob.transferFired = true
	ob.m.firePhase(&ob.pt, PhaseTransfer, 0, ob.p.PID)
	if ob.failed || ob.finished {
		return
	}
	tcp, udp := ob.p.Sockets()
	n := len(tcp) + len(udp)
	var cost simtime.Duration
	if ob.m.Config.Strategy == sockmig.IncrementalCollective {
		cost = simtime.Duration(n) * ob.m.Config.Costs.SockTrack
	} else {
		cost = simtime.Duration(n) * ob.m.Config.Costs.SockSubtract
	}
	ob.m.sched().After(cost, "migd.subtract", func() {
		if ob.failed || ob.finished {
			return
		}
		ob.attrSer += cost
		// Mirror the destination's capture filters locally so an abort
		// can replay what arrived while the sockets were out of the
		// hash tables (reinjected on rollback, discarded on success).
		if ob.m.Config.EnableCapture {
			for _, k := range sockmig.CaptureKeys(ob.p) {
				ob.localFilters = append(ob.localFilters, ob.m.Capture.EnableEpoch(k, ob.epoch))
			}
		}
		ntcp, nudp := sockmig.DisableAll(ob.p)
		ob.metrics.TCPMigrated = ntcp
		ob.metrics.UDPMigrated = nudp
		var sd *sockmig.SockDelta
		if ob.m.Config.Strategy == sockmig.IncrementalCollective {
			sd = ob.sockTracker.Delta(ob.p, true)
		} else {
			sd = sockmig.FullDelta(ob.p)
		}
		ob.mig().finalTransfer(ob, sd)
	})
}

// sendFreeze transfers the final memory delta, thread contexts and the
// non-socket FD table (phase 3: BLCR's regular iteration excluding the
// already-processed connections), plus — for collective strategies — the
// unified socket buffer.
func (ob *outbound) sendFreeze(sd *sockmig.SockDelta) {
	// The rounds' encode scratch is idle by now (each round's stream is
	// pumped out at the round's own instant), and the image encoder
	// copies it into the final payload.
	memDelta := ob.memTracker.Delta(ob.p.AS)
	ob.encBuf = memDelta.EncodeInto(ob.encBuf)
	ob.metrics.MemPageBytes += memDelta.PageDataBytes()
	ob.sendFinal(chunkKindFreeze, ob.encBuf, sd)
}

// sendFinal ships the final image of either kind: the minimal
// checkpoint image, mem (the last delta or the page directory, by
// kind), and the socket payload — sd is nil for the iterative socket
// strategy, whose sockets were unhashed and shipped one by one already.
func (ob *outbound) sendFinal(kind byte, mem []byte, sd *sockmig.SockDelta) {
	if ob.m.Config.Strategy != sockmig.Iterative && sd == nil {
		sd = &sockmig.SockDelta{}
	}
	fi := finalImage{
		FreezeStart: ob.metrics.FreezeStart,
		Image:       ob.buildImage().Encode(),
		Mem:         mem,
	}
	ob.metrics.FreezeMemBytes += uint64(len(mem))
	if sd != nil {
		fi.SockDelta = sd.Encode()
		ob.metrics.FreezeSockBytes += uint64(len(fi.SockDelta))
		if ob.m.Config.Strategy != sockmig.Iterative {
			tcp, udp := ob.p.Sockets()
			ob.metrics.TCPMigrated, ob.metrics.UDPMigrated = len(tcp), len(udp)
		}
	}
	// The commit fence rises with the stream's final frame (sendPayload);
	// the destination restores only on a complete image.
	ob.sendPayload(kind, fi.encode(kind), true)
}

// buildImage assembles the minimal checkpoint image (threads, regular
// FDs, meta) every strategy's freeze payload carries.
func (ob *outbound) buildImage() *ckpt.Image {
	img := &ckpt.Image{
		PID: ob.p.PID, Name: ob.p.Name,
		CPUDemand: ob.p.CPUDemand, LoopPeriod: ob.p.LoopPeriod,
		FDs: ckpt.CheckpointFDsExcludingSockets(ob.p),
	}
	for sig := range ob.p.SigHandlers {
		img.HandledSignals = append(img.HandledSignals, sig)
	}
	for _, th := range ob.p.Threads {
		img.Threads = append(img.Threads, ckpt.ThreadImage{TID: th.TID, Regs: th.Regs})
	}
	return img
}

// FreezeAttrComponents are the freeze-time attribution components, in
// rendering order: signal/capture coordination, the precopy'd pages'
// final copy plus destination restore, per-socket state serialization,
// and translation-rule installs (Fig 5b's breakdown axis).
var FreezeAttrComponents = [...]string{
	"coordination", "page_copy", "socket_serialize", "xlat",
}

// FreezeAttrMetric names the attribution histogram of one component at
// one connection count, e.g. mig/freeze_attr/conns=0064/xlat_us —
// shared by the recorder below and eval's attribution table.
func FreezeAttrMetric(conns int, component string) string {
	return fmt.Sprintf("mig/freeze_attr/conns=%04d/%s_us", conns, component)
}

// observeFreezeAttr records the completed migration's freeze-time
// breakdown into histograms keyed by the migrated connection count.
// Only called on the enabled path, once per migration: the Sprintf'd
// metric names and registry lookups never touch the disabled hot path.
func (ob *outbound) observeFreezeAttr() {
	conns := ob.metrics.TCPMigrated + ob.metrics.UDPMigrated
	page := ob.metrics.FreezeTime - ob.attrCoord - ob.attrXlat - ob.attrSer
	if page < 0 {
		page = 0
	}
	comps := [...]simtime.Duration{ob.attrCoord, page, ob.attrSer, ob.attrXlat}
	r := ob.m.Obs.M()
	for i, name := range FreezeAttrComponents {
		r.Histogram(FreezeAttrMetric(conns, name), obs.DurationBucketsUs).
			Observe(float64(comps[i]) / 1e3)
	}
	ob.pt.root.SetInt("attr_coordination_us", int64(ob.attrCoord/1e3))
	ob.pt.root.SetInt("attr_page_copy_us", int64(page/1e3))
	ob.pt.root.SetInt("attr_socket_serialize_us", int64(ob.attrSer/1e3))
	ob.pt.root.SetInt("attr_xlat_us", int64(ob.attrXlat/1e3))
}

func (ob *outbound) finish(rd restoreDone) {
	ob.finished = true
	delete(ob.m.active, ob.p.PID)
	// The process resumed remotely: the local safety-net filters (and
	// the packets they swallowed — the destination processed its own
	// broadcast copies) are no longer needed, nor is the rollback plan.
	for _, f := range ob.localFilters {
		ob.m.Capture.Drop(f)
	}
	ob.localFilters = nil
	ob.rollback = nil
	ob.metrics.ResumeAt = rd.ResumeAt
	ob.metrics.FreezeTime = rd.ResumeAt - ob.metrics.FreezeStart
	ob.metrics.TotalTime = rd.ResumeAt - ob.metrics.Start
	ob.metrics.Captured = rd.Captured
	ob.metrics.Reinjected = rd.Reinjected
	// Pre-copy's degraded window is the pre-freeze span (rounds competing
	// with the application for the link); the resume instant is also the
	// moment the last page arrived.
	ob.metrics.DegradedWindow = ob.metrics.FreezeStart - ob.metrics.Start
	ob.metrics.LastFillAt = rd.ResumeAt
	// The process now lives on the destination; dismantle it here and
	// drop any local translation rules that protected its (departed)
	// in-cluster connections.
	tcp, _ := ob.p.Sockets()
	for _, sk := range tcp {
		if ob.inCluster(sk.RemoteIP) {
			ob.m.Transd.Translator().RemoveFlow(netsim.ProtoTCP, sk.RemoteIP, sk.LocalPort, sk.RemotePort)
		}
	}
	ob.p.State = proc.ProcExited
	ob.m.Node.Detach(ob.p)
	ob.conn.Close()
	ob.m.Completed = append(ob.m.Completed, ob.metrics)
	if ob.m.Obs != nil {
		ob.m.obsm.freezeUs.Observe(float64(ob.metrics.FreezeTime) / 1e3)
		ob.m.obsm.downtimeUs.Observe(float64(ob.metrics.FreezeTime+ob.metrics.StallTime) / 1e3)
		ob.pt.root.SetInt("freeze_us", int64(ob.metrics.FreezeTime)/1e3)
		ob.observeFreezeAttr()
	}
	ob.m.firePhase(&ob.pt, PhaseDone, 0, ob.p.PID)
	if ob.done != nil {
		ob.done(ob.metrics, nil)
	}
}

// --- destination side ------------------------------------------------------

type inbound struct {
	m    *Migrator
	conn *Conn
	req  migrateReq

	shadowAS *proc.AddressSpace
	store    *sockmig.Store
	filters  []*capture.Filter

	active bool

	// post marks a post-copy/hybrid restore: the freeze payload is a
	// POST_IMAGE, PhaseReinject is not terminal, and a puller drives the
	// demand-paging phase after resume. holes is the absent-page count
	// the directory declared.
	post   bool
	holes  int
	puller *puller

	// Chunk-stream reassembly (chunkpipe.go): the open stream's identity,
	// the next expected sequence number, and the accumulation buffer
	// (reused across precopy rounds' streams).
	chunkOpen   bool
	chunkKind   byte
	chunkStream uint32
	chunkNext   uint32
	chunkBuf    []byte

	// lease discards the half-restored state if the source goes silent
	// (a crashed source sends no FIN, so OnClose never fires). Renewed on
	// every message; disarmed once the full freeze image has arrived —
	// from that point the restore completes whether the source lives or
	// not, and the source being dead just means one owner, here.
	lease     *simtime.Event
	restoring bool

	// pt is the migration's phase clock and span cursor.
	pt phaseTrack
}

// renewLease (re)arms the source-silence timer. It runs on every migd
// message, so the timer is armed through AfterCall: no closure per frame.
func (ib *inbound) renewLease() {
	d := ib.m.Config.InboundLease
	if d <= 0 || ib.restoring {
		return
	}
	if ib.lease != nil {
		ib.m.sched().Cancel(ib.lease)
	}
	ib.lease = ib.m.sched().AfterCall(d, "migd.lease", inboundLeaseCall, ib, nil)
}

func inboundLeaseCall(a0, _ any) { a0.(*inbound).leaseExpired() }

func (ib *inbound) leaseExpired() {
	ib.lease = nil // fired; the event pointer is dead
	if !ib.active || ib.restoring {
		return
	}
	ib.m.LeaseExpired++
	ib.cleanup()
	ib.conn.Close()
}

func (ib *inbound) onMsg(t MsgType, payload []byte) {
	st := ib.state()
	if st == ibClosed {
		// In flight behind our close (the rest of a chunk stream, prefetch
		// pushes): nobody left to answer to, nothing left to change.
		return
	}
	if !accepts(ibAccepts[st], t) {
		ib.abort(&protocolError{t: t, state: ibStateNames[st]})
		return
	}
	// Only a frame the state accepts counts as hearing from the source:
	// noise cannot hold half-restored state past the lease.
	if st == ibTransfer {
		ib.renewLease()
	}
	switch t {
	case MsgMigrateReq:
		req, err := decodeMigrateReq(payload)
		if err != nil {
			ib.abort(err)
			return
		}
		// Fencing: a request stamped below the service's epoch watermark
		// comes from a node whose ownership a failover superseded.
		if req.Name != "" && !ib.m.Epochs.Observe(req.Name, req.Epoch) {
			ib.abort(fmt.Errorf("migration: stale epoch %d for %q (watermark %d)",
				req.Epoch, req.Name, ib.m.Epochs.Current(req.Name)))
			return
		}
		if _, err := strategyByMode(req.Mode); err != nil {
			ib.abort(err)
			return
		}
		ib.req = req
		ib.post = req.Mode != modePrecopy
		ib.pt.pullsAfterReinject = ib.post
		ib.shadowAS = proc.NewAddressSpace()
		ib.store = sockmig.NewStore()
		ib.active = true
		// The request carries the source migration span's coordinate; the
		// destination's restore tree parents into it — one connected trace
		// spanning both nodes. The return-path packets (acks, RESTORE_DONE)
		// are stamped with the same coordinate.
		sctx := obs.TraceContext{Trace: req.TraceID, Span: req.SpanID}
		ib.pt.begin(ib.m, "inbound", req.PID, sctx)
		if sctx.Valid() {
			sk := ib.conn.Socket()
			sk.Trace = &netsim.TraceRef{Trace: sctx.Trace, Span: sctx.Span}
		}
		// Acks and RESTORE_DONE ride the checkpoint class too (the pull
		// phase restamps to ClassPagePull at resume).
		ib.conn.Socket().Class = netsim.ClassCheckpoint
		ib.renewLease()
		ib.conn.Send(MsgMigrateAck, nil)
	case MsgSockDelta:
		ib.applySockDelta(payload)
	case MsgChunk:
		ib.onChunk(payload)
	case MsgChunkEnd:
		ib.onChunkEnd(payload)
	case MsgCaptureReq:
		keys, err := decodeCaptureReq(payload)
		if err != nil {
			ib.abort(err)
			return
		}
		if st == ibTransfer { // in idle: acknowledged, nothing to capture for (see ibAccepts)
			for _, k := range keys {
				ib.filters = append(ib.filters, ib.m.Capture.EnableEpoch(k, ib.req.Epoch))
			}
		}
		ib.conn.Send(MsgCaptureAck, nil)
	case MsgPageResp:
		pr, err := decodePageResp(payload)
		if err != nil {
			ib.abort(err)
			return
		}
		ib.puller.onResp(pr)
	case MsgAbort:
		ib.cleanup()
	}
}

// applySockDelta folds an encoded socket delta — a precopy round's, or
// the final image's — into the staging store; false means it aborted.
func (ib *inbound) applySockDelta(b []byte) bool {
	sd, err := sockmig.DecodeSockDelta(b)
	if err == nil {
		err = ib.store.Apply(sd)
	}
	if err != nil {
		ib.abort(err)
	}
	return err == nil
}

func (ib *inbound) abort(err error) {
	var payload []byte
	if err != nil {
		payload = []byte(err.Error())
	}
	ib.conn.Send(MsgAbort, payload)
	ib.cleanup()
	ib.conn.Close()
}

func (ib *inbound) cleanup() {
	if ib.puller != nil {
		// Mid-pull teardown (source abort, fence, corruption): a process
		// with holes can never serve — destroy() is a no-op once drained.
		ib.puller.destroy()
		ib.puller = nil
	}
	for _, f := range ib.filters {
		ib.m.Capture.Drop(f)
	}
	ib.filters = nil
	ib.active = false
	if ib.lease != nil {
		ib.m.sched().Cancel(ib.lease)
		ib.lease = nil
	}
	// Discard the shadow state outright: nothing half-restored survives.
	ib.shadowAS = nil
	ib.store = nil
	ib.pt.abandon()
}

// restore runs the destination freeze-phase work: fold in the final
// image — the last memory delta, or for a post image the page
// directory (geometry to the frozen shape, holes marked absent) — and
// the socket payload, then rebuild the process after the simulated
// restore cost.
func (ib *inbound) restore(fi finalImage) {
	ib.m.firePhase(&ib.pt, PhaseRestore, 0, ib.req.PID)
	if !ib.m.Node.Alive {
		ib.cleanup()
		return // a phase hook crashed this node
	}
	img, err := ckpt.DecodeImage(fi.Image)
	if err != nil {
		ib.abort(err)
		return
	}
	if ib.post {
		var dir *ckpt.PageDir
		if dir, err = ckpt.DecodePageDir(fi.Mem); err == nil {
			err = ckpt.ApplyPageDir(ib.shadowAS, dir)
			ib.holes = len(dir.Absent)
		}
	} else {
		err = ckpt.ApplyEncodedDelta(ib.shadowAS, fi.Mem)
	}
	if err != nil {
		ib.abort(err)
		return
	}
	if len(fi.SockDelta) > 0 && !ib.applySockDelta(fi.SockDelta) {
		return
	}
	nsock := ib.store.TCPCount() + ib.store.UDPCount()
	cost := simtime.Duration(nsock)*ib.m.Config.Costs.SockRestore + ib.m.Config.Costs.FreezeOverhead
	ib.m.sched().After(cost, "migd.restore", func() {
		ib.finishRestore(img)
	})
}

func (ib *inbound) finishRestore(img *ckpt.Image) {
	if !ib.active {
		return // aborted during the restore window; state already discarded
	}
	if !ib.m.Node.Alive {
		ib.cleanup()
		return // the node crashed during the restore window
	}
	n := ib.m.Node
	p := n.Spawn(img.Name, 0)
	n.Detach(p)
	p.PID = ib.req.PID
	n.Adopt(p)
	p.Threads = p.Threads[:0]
	for _, ti := range img.Threads {
		th := p.NewThread()
		th.TID = ti.TID
		th.Regs = ti.Regs
	}
	p.AS = ib.shadowAS
	p.CPUDemand = img.CPUDemand
	if err := ckpt.RestoreFDs(n, p, img.FDs); err != nil {
		ib.abort(err)
		return
	}
	opt := sockmig.RestoreOptions{
		LocalNet: proc.LocalNet, LocalNetBits: proc.LocalNetBits,
		NewLocalIP: n.LocalIP,
	}
	if _, _, err := ib.store.RestoreAll(n.Stack, p, opt); err != nil {
		ib.abort(err)
		return
	}
	if b := takeBehavior(ib.req.Token); b != nil {
		p.Tick = b.Tick
		if b.SigHandlers != nil {
			p.SigHandlers = b.SigHandlers
		}
	}
	if ib.post {
		// Install the demand-paging client before anything can touch the
		// address space: reinjected packets and the first loop tick may
		// land on holes.
		ib.puller = newPuller(ib, p)
	}
	// Reinject captured packets through the okfn, then resume.
	ib.m.firePhase(&ib.pt, PhaseReinject, 0, ib.req.PID)
	if !ib.m.Node.Alive {
		// A phase hook crashed this node after the process image was
		// adopted; dismantle so the dead node holds no running state.
		n.Detach(p)
		ib.cleanup()
		return
	}
	var captured, reinjected uint32
	for _, f := range ib.filters {
		captured += uint32(f.Captured)
		nrj, err := ib.m.Capture.ReinjectAndDisable(f)
		if err == nil {
			reinjected += uint32(nrj)
		}
	}
	ib.filters = nil
	p.State = proc.ProcRunning
	if img.LoopPeriod > 0 && p.Tick != nil {
		n.StartLoop(p, img.LoopPeriod)
	}
	now := ib.m.sched().Now()
	if ib.post {
		ib.puller.resume(now, captured, reinjected)
	} else {
		ib.conn.Send(MsgRestoreDone, restoreDone{ResumeAt: now, Captured: captured, Reinjected: reinjected}.encode())
	}
	if ib.m.OnArrived != nil {
		mig := Precopy()
		if st, err := strategyByMode(ib.req.Mode); err == nil {
			mig = st
		}
		m := &Metrics{Strategy: ib.req.Strategy, Mig: mig.Name(), ResumeAt: now}
		ib.m.OnArrived(p, m)
	}
}
