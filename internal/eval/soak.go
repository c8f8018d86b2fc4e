package eval

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"dvemig/internal/ctlplane"
	"dvemig/internal/faults"
	"dvemig/internal/lb"
	"dvemig/internal/migration"
	"dvemig/internal/obs"
	"dvemig/internal/proc"
	"dvemig/internal/simprof"
	"dvemig/internal/simtime"
	"dvemig/internal/trace"
)

// SoakEnv is the environment a soak scenario's Arm hook sabotages: a
// five-node cell — three worker nodes running migrator + conductor +
// control-plane agent, a primary controller node and a standby — with a
// fault injector seeded for the run. Control-plane datagrams ride the
// same in-cluster links as migd, so every fault applies to both planes.
type SoakEnv struct {
	Sched    *simtime.Scheduler
	Cluster  *proc.Cluster
	Inj      *faults.Injector
	Workers  []*proc.Node
	CtlNode  *proc.Node
	SbNode   *proc.Node
	Ctl      *ctlplane.Controller
	Standby  *ctlplane.Controller
	Agents   []*ctlplane.Agent
	Migrator []*migration.Migrator
	// OnHalfway, when an Arm sets it, runs the instant the pump has
	// submitted half of the cell's requests.
	OnHalfway func()
}

// SoakScenario is one named fault script, armed after the healthy cell
// is built and before the request pump starts.
type SoakScenario struct {
	Name string
	Arm  func(env *SoakEnv)
}

// DefaultSoakScenarios is the soak chaos battery. Unlike the chaos
// sweep (one migration under one fault), every scenario here runs under
// a continuous stream of migration requests.
func DefaultSoakScenarios() []SoakScenario {
	allLocal := func(e *SoakEnv, prog func() *faults.Program) {
		for _, n := range e.Cluster.Nodes {
			e.Inj.Attach(n.LocalNIC, prog())
		}
	}
	return []SoakScenario{
		{Name: "healthy", Arm: func(*SoakEnv) {}},
		{Name: "lossy", Arm: func(e *SoakEnv) {
			allLocal(e, func() *faults.Program { return &faults.Program{BaseLoss: 0.03} })
		}},
		{Name: "dup-reorder", Arm: func(e *SoakEnv) {
			allLocal(e, func() *faults.Program {
				return &faults.Program{DupRate: 0.03, ReorderRate: 0.1, ReorderDelay: 2 * time.Millisecond}
			})
		}},
		{Name: "jitter", Arm: func(e *SoakEnv) {
			allLocal(e, func() *faults.Program { return &faults.Program{JitterMax: 1 * time.Millisecond} })
		}},
		{Name: "ctl-crash", Arm: func(e *SoakEnv) {
			// Kill the primary controller's node mid-soak — 8s in, or once
			// half the requests are submitted if that comes first: the
			// standby must take over under a bumped epoch and finish every
			// object without double-driving a single migration.
			e.Inj.CrashAt(e.Cluster, e.CtlNode, e.Sched.Now()+8*1e9)
			e.OnHalfway = func() {
				if e.CtlNode.Alive {
					e.Inj.CrashAt(e.Cluster, e.CtlNode, e.Sched.Now())
				}
			}
		}},
		{Name: "ctl-partition", Arm: func(e *SoakEnv) {
			// The primary is partitioned (not dead) for 6s: the standby takes
			// over; when the link heals the fenced ex-primary must demote
			// instead of double-driving.
			from := e.Sched.Now() + 6*1e9
			e.Inj.DownFor(e.CtlNode.LocalNIC, from, from+6*1e9)
		}},
	}
}

// SoakConfig parameterizes a soak sweep.
type SoakConfig struct {
	Scenarios []SoakScenario
	Seeds     []uint64
	// Requests is the number of migration objects pumped per cell.
	Requests int
	// Procs is the number of migratable processes, spread round-robin
	// across the three workers.
	Procs int
	// Inflight caps concurrently non-terminal objects.
	Inflight int
	// Strategy pins the memory-movement strategy; "mixed" rotates
	// through all three, "" uses the engine default.
	Strategy string
	// CancelFraction of submissions get a cancel verb shortly after
	// (default 0.02), exercising abort/rollback under load.
	CancelFraction float64
	MigCfg         migration.Config
	// Workers bounds sweep parallelism (cells are private; the report is
	// bit-identical at any worker count).
	Workers int
	// Observe attaches a per-cell observability plane.
	Observe bool
	// Horizon caps a cell's simulated runtime (default 30 sim-minutes);
	// hitting it with non-terminal objects is an audit violation.
	Horizon simtime.Duration
	// SamplePeriod is the streaming-observability cadence: every period
	// the cell's sampler snapshots the registry into time series and runs
	// the incremental audits, so a violation surfaces in its containing
	// window instead of at teardown (default 1 sim-second). Zero or
	// negative disables sampling and incremental audits entirely.
	SamplePeriod simtime.Duration
	// Prof, when non-nil, attaches the wall-clock self-profiling plane
	// (event-loop attribution, phase skew, sweep occupancy). Read-only
	// with respect to the simulation: the report, metrics and series
	// artifacts are byte-identical with or without it.
	Prof *simprof.Profiler
}

// soakAuditSlack pads the per-object deadline+grace budget before the
// incremental audit calls an object stuck: a takeover blind window
// (~TakeoverAfter) plus a few reconcile periods of re-drive latency.
const soakAuditSlack = 5 * time.Second

// DefaultSoakSLOs are the soak battery's per-cell objectives, which the
// SLO engine evaluates over the sampled windows of an observed cell —
// the thresholds EXPERIMENTS.md tracks PR-over-PR:
// p99 migration downtime under a quarter simulated second, at most 5%
// of terminal objects aborted, and a retry budget of two per submitted
// request.
func DefaultSoakSLOs() []obs.Objective {
	return []obs.Objective{
		{Name: "downtime-p99", Hist: "mig/downtime_us", Pct: 99, Max: 250e3},
		{Name: "abort-rate", Bad: "soak/aborted_total", Total: "soak/terminal_total", Max: 0.05},
		{Name: "retry-budget", Bad: "soak/retries_total", Total: "soak/submitted_total", Max: 2.0},
	}
}

// DefaultSoakConfig returns a soak tuned so aborts and retries resolve
// quickly enough to pump thousands of requests per simulated hour.
func DefaultSoakConfig() SoakConfig {
	mc := migration.DefaultConfig()
	mc.Deadline = 4 * 1e9
	mc.ConnTimeout = 500 * time.Millisecond
	mc.ConnRetries = 1
	mc.RetryBackoff = 100 * time.Millisecond
	mc.RetryJitter = 0.2
	return SoakConfig{
		Scenarios:      DefaultSoakScenarios(),
		Seeds:          []uint64{1, 2},
		Requests:       500,
		Procs:          9,
		Inflight:       4,
		Strategy:       "mixed",
		CancelFraction: 0.02,
		MigCfg:         mc,
		Horizon:        30 * time.Minute,
		SamplePeriod:   time.Second,
	}
}

// SoakResult is one (scenario, seed) cell's outcome and audit verdict.
type SoakResult struct {
	Scenario string
	Seed     uint64
	// Requests submitted; terminal-state breakdown.
	Requests  int
	Succeeded int
	Failed    int
	Aborted   int
	// Retries sums Status.Retries over all objects; CancelsIssued counts
	// accepted cancel verbs.
	Retries       int
	CancelsIssued int
	// Control-plane counters (summed over both controllers / all agents).
	Dispatches uint64
	Resends    uint64
	Dedups     uint64
	StaleCtl   uint64
	Takeovers  uint64
	Demotions  uint64
	// Engine truth: migrations actually driven / completed / rolled back.
	EngineStarted   uint64
	EngineCompleted int
	EngineAborted   int
	// Violations is the audit verdict: exactly-once, single-owner,
	// all-terminal. Empty means the soak held.
	Violations []string
	// FailureCauses samples up to eight Failed objects' cause chains —
	// enough to tell "deadline" from "retries exhausted" in a report.
	FailureCauses []string
	// DowntimesUs lists per completed migration FreezeTime+StallTime in
	// microseconds (p99 via trace.Percentile).
	DowntimesUs []float64
	// TraceHash is the cell's wire digest (every NIC, read after the
	// drain); equal hashes mean bit-identical cells.
	TraceHash         uint64
	PendingAfterDrain int
	Obs               *obs.Capture
	// FlightDump is the flight recorder's window, taken from the replay
	// of a cell whose audit found a violation.
	FlightDump string
	// Windows counts emitted sample windows; FirstViolationWindow is the
	// index of the first window whose incremental audit found something
	// (-1 when the run held or sampling was off) — the FlightDump is then
	// scoped to that window via its locator header.
	Windows              int
	FirstViolationWindow int
	// SLO holds the per-cell SLO engine verdicts (nil without Observe).
	SLO []*obs.SLOResult
}

func (r *SoakResult) capture() *obs.Capture        { return r.Obs }
func (r *SoakResult) verdict() (uint64, *[]string) { return r.TraceHash, &r.Violations }

// SoakReport aggregates a sweep.
type SoakReport struct{ Report[*SoakResult] }

// DowntimeP99Us returns the 99th-percentile migration downtime (µs)
// across every completed migration in the sweep (trace.Percentile
// sorts internally).
func (r *SoakReport) DowntimeP99Us() float64 {
	var all []float64
	for _, res := range r.Results {
		all = append(all, res.DowntimesUs...)
	}
	return trace.Percentile(all, 99)
}

// SLOTable renders the per-cell SLO verdicts: the objective's overall
// value against its target, single-window breach count and first
// breach index, and the burn-rate peak per accounting window length.
// Empty when no cell ran the SLO engine.
func (r *SoakReport) SLOTable() string {
	var b strings.Builder
	rows := 0
	for _, res := range r.Results {
		for _, s := range res.SLO {
			if rows == 0 {
				fmt.Fprintf(&b, "slo: per-cell objectives over sampled windows (burnN = peak burn rate over N windows)\n")
				fmt.Fprintf(&b, "%-14s %5s %-14s %10s %10s %-6s %7s %6s %s\n",
					"scenario", "seed", "objective", "target", "overall", "met", "breach", "first", "burn peaks")
			}
			rows++
			burns := ""
			for _, bu := range s.Burns {
				burns += fmt.Sprintf(" burn%d=%.2f", bu.Len, bu.Peak)
			}
			fmt.Fprintf(&b, "%-14s %5d %-14s %10.4g %10.4g %-6v %7d %6d%s\n",
				res.Scenario, res.Seed, s.Name, s.Objective.Max, s.Overall,
				s.Met, s.BreachWindows, s.FirstBreach, burns)
		}
	}
	return b.String()
}

// Table renders the sweep for console output.
func (r *SoakReport) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "soak: lifecycle outcomes, retries and audits per cell\n")
	fmt.Fprintf(&b, "%-14s %5s %5s %5s %5s %5s %6s %7s %6s %5s %5s %18s\n",
		"scenario", "seed", "req", "ok", "fail", "abort", "retry", "resend", "dedup", "tkovr", "viol", "trace-hash")
	for _, res := range r.Results {
		fmt.Fprintf(&b, "%-14s %5d %5d %5d %5d %5d %6d %7d %6d %5d %5d %#18x\n",
			res.Scenario, res.Seed, res.Requests, res.Succeeded, res.Failed, res.Aborted,
			res.Retries, res.Resends, res.Dedups, res.Takeovers, len(res.Violations), res.TraceHash)
	}
	var req, ok, fail, abort, retry int
	for _, res := range r.Results {
		req += res.Requests
		ok += res.Succeeded
		fail += res.Failed
		abort += res.Aborted
		retry += res.Retries
	}
	fmt.Fprintf(&b, "total: %d requests, %d succeeded, %d failed, %d aborted, %d retries, %d cells with violations, p99 downtime %.0fµs\n",
		req, ok, fail, abort, retry, r.Violations(), r.DowntimeP99Us())
	return b.String()
}

// RunSoak pumps cfg.Requests migration objects per (scenario, seed)
// cell through the declarative control plane under the chaos battery
// and audits the invariant list mid-run and at quiescence.
func RunSoak(cfg SoakConfig) (*SoakReport, error) {
	if cfg.Requests <= 0 || cfg.Procs <= 0 || cfg.Inflight <= 0 {
		return nil, fmt.Errorf("eval: soak needs positive Requests, Procs and Inflight, got %d, %d, %d",
			cfg.Requests, cfg.Procs, cfg.Inflight)
	}
	rep, err := sweep(cfg.Scenarios, cfg.Seeds, cfg.Workers, cfg.Prof.Sweep("soak-sweep", cfg.Workers),
		func(sc SoakScenario, seed uint64) string { return cfg.key(sc.Name, seed) }, cfg.runCell)
	return &SoakReport{rep}, err
}

func (cfg SoakConfig) runCell(sc SoakScenario, seed uint64, lit bool) (*SoakResult, error) {
	const nWorkers = 3
	label := fmt.Sprintf("soak/%s/seed%d", sc.Name, seed)
	f := newFixture(nWorkers+2, cfg.Observe, lit, cfg.Prof, label)
	f.hashWires()
	sched, cluster, o := f.sched, f.cluster, f.obs
	workers := cluster.Nodes[:nWorkers]
	ctlNode, sbNode := cluster.Nodes[nWorkers], cluster.Nodes[nWorkers+1]

	lcfg := lb.DefaultConfig()
	lcfg.ImbalanceThreshold = 10 // conductors heartbeat but never self-balance
	var migrators []*migration.Migrator
	var agents []*ctlplane.Agent
	var conds []*lb.Conductor
	for _, n := range workers {
		m, err := f.migrator(n, cfg.MigCfg)
		if err != nil {
			return nil, err
		}
		cd, err := lb.NewConductor(n, m, lcfg)
		if err != nil {
			return nil, err
		}
		a, err := ctlplane.NewAgent(n, m, cd)
		if err != nil {
			return nil, err
		}
		migrators = append(migrators, m)
		conds = append(conds, cd)
		agents = append(agents, a)
	}

	ccfg := ctlplane.DefaultConfig()
	ccfg.Retry = migration.BackoffPolicy{Base: 200 * time.Millisecond, Max: 2 * time.Second, Jitter: 0.3}
	// With Inflight objects racing over three source nodes, "lb slot
	// busy" collisions are routine — give the reconcile loop enough
	// retry budget to wait a slot-holder out.
	ccfg.MaxRetries = 6
	ccfg.Deadline = 10 * time.Second
	ccfg.CancelGrace = 3 * time.Second
	ccfg.Seed = seed
	ctl, err := ctlplane.NewController(ctlNode, sbNode.LocalIP, true, ccfg)
	if err != nil {
		return nil, err
	}
	standby, err := ctlplane.NewController(sbNode, ctlNode.LocalIP, false, ccfg)
	if err != nil {
		return nil, err
	}

	// Terminal tracking across both controllers (the soak survives a
	// takeover mid-run): an object is done the first time either
	// controller parks it.
	done := make(map[uint64]bool)
	onT := func(obj *ctlplane.Object, _, to ctlplane.State) {
		if to.Terminal() {
			done[obj.Spec.ID] = true
		}
	}
	ctl.OnTransition = onT
	standby.OnTransition = onT

	// The migratable fleet.
	names := make([]string, cfg.Procs)
	for i := 0; i < cfg.Procs; i++ {
		n := workers[i%nWorkers]
		name := fmt.Sprintf("svc%02d", i)
		names[i] = name
		p := n.Spawn(name, 1)
		v := p.AS.Mmap(8*proc.PageSize, "rw-")
		p.CPUDemand = 0.1
		idx := uint64(i)
		p.Tick = func(self *proc.Process) {
			self.AS.Touch(v.Start + (idx%8)*proc.PageSize)
		}
		n.StartLoop(p, 200*time.Millisecond)
	}
	// locate finds a service's current (unique) home among the workers.
	locate := func(name string) (*proc.Process, *proc.Node) {
		for _, n := range workers {
			for _, p := range n.Processes() {
				if p.Name == name {
					return p, n
				}
			}
		}
		return nil, nil
	}
	inj := faults.NewInjector(sched, seed)
	inj.Obs = o
	env := &SoakEnv{Sched: sched, Cluster: cluster, Inj: inj,
		Workers: workers, CtlNode: ctlNode, SbNode: sbNode,
		Ctl: ctl, Standby: standby, Agents: agents, Migrator: migrators}
	if sc.Arm != nil {
		sc.Arm(env)
	}

	res := &SoakResult{Scenario: sc.Name, Seed: seed, FirstViolationWindow: -1}
	rng := simtime.NewRand(seed ^ 0x736f616b)
	strategies := migration.StrategyNames()
	submitted := 0
	submittedIDs := make([]uint64, 0, cfg.Requests)
	inflightName := make(map[string]uint64) // service → open object
	idName := make(map[uint64]string)

	// violate records an audit violation once: a condition that persists
	// across sample windows (or reappears at teardown) is reported in its
	// first containing window only, keyed by its stable message text.
	seenViol := make(map[string]bool)
	violate := func(msg string) bool {
		if seenViol[msg] {
			return false
		}
		seenViol[msg] = true
		return true
	}

	// audit walks the invariant list (invariants.go) for this cell, in
	// the form that holds at any instant or the one that holds at
	// quiescence; the object-level quiescent form needs the surviving
	// controller and is added at teardown.
	audit := func(quiescent bool) []string {
		var found []string
		for _, name := range names {
			if _, breach := singleOwner(workers, name, quiescent); breach != "" {
				found = append(found, breach)
			}
		}
		started, completed, aborted := engineLedger(agents, migrators)
		found = append(found, exactlyOnce(started, completed, aborted, quiescent)...)
		if !quiescent {
			found = append(found, ctlplane.AuditLive(ctl, standby, soakAuditSlack)...)
		}
		return found
	}

	// Streaming observability: a sim-time sampler snapshots the registry
	// into ring series every period and runs the audit's any-instant form,
	// so a violation surfaces in the window it happened in.
	var sampler *obs.Sampler
	var sloEng *obs.SLOEngine
	if cfg.SamplePeriod > 0 {
		sampler = obs.NewSampler(sched, o.M(), cfg.SamplePeriod)
		if o != nil {
			o.Sampler = sampler
			// Idempotent scrape: cluster totals plus the soak's own
			// monotonic request-lifecycle counters, re-stored every window.
			sampler.Harvest = func(r *obs.Registry) {
				obs.HarvestCluster(r, cluster)
				r.Counter("soak/submitted_total").Store(uint64(submitted))
				r.Counter("soak/terminal_total").Store(uint64(len(done)))
				var retries, aborted uint64
				for _, id := range submittedIDs {
					obj := ctl.Get(id)
					if obj == nil {
						obj = standby.Get(id)
					}
					if obj == nil {
						continue
					}
					retries += uint64(obj.Status.Retries)
					if obj.Status.State == ctlplane.Aborted {
						aborted++
					}
				}
				r.Counter("soak/retries_total").Store(retries)
				r.Counter("soak/aborted_total").Store(aborted)
			}
			sloEng = obs.NewSLOEngine(DefaultSoakSLOs()...)
			sampler.AttachSLO(sloEng)
		}
		sampler.OnSample(func(w obs.SampleWindow) {
			res.Windows = w.Index + 1
			fresh := false
			for _, msg := range audit(false) {
				if violate(msg) {
					fresh = true
					res.Violations = append(res.Violations,
						fmt.Sprintf("window %d [%v, %v): %s", w.Index, w.From, w.To, msg))
				}
			}
			if fresh && res.FirstViolationWindow < 0 {
				res.FirstViolationWindow = w.Index
				var b strings.Builder
				f.flight.DumpWindow(&b, w.Index, int64(w.From), int64(w.To)) // nothing when dark
				res.FlightDump = b.String()
			}
		})
		sampler.Start()
	}

	pump := simtime.NewTicker(sched, 120*time.Millisecond, "soak.pump", func() {
		pr := ctlplane.Authoritative(ctl, standby)
		if pr == nil {
			return // takeover window: no one to submit to
		}
		// Reap finished names so the next pick can reuse them.
		for name, id := range inflightName {
			if done[id] {
				delete(inflightName, name)
			}
		}
		for submitted < cfg.Requests && len(submittedIDs)-len(done) < cfg.Inflight {
			name := names[rng.Intn(len(names))]
			if _, open := inflightName[name]; open {
				return // try again next tick — keeps the rng sequence state-driven
			}
			p, home := locate(name)
			if p == nil || p.State != proc.ProcRunning {
				return
			}
			dest := workers[rng.Intn(nWorkers)]
			if dest == home {
				dest = workers[(rng.Intn(nWorkers-1)+1+slices.Index(workers, home))%nWorkers]
			}
			strat := cfg.Strategy
			if strat == "mixed" {
				strat = strategies[submitted%len(strategies)]
			}
			obj, err := pr.Submit(ctlplane.Spec{
				PID: p.PID, Name: name, Source: home.LocalIP, Dest: dest.LocalIP,
				Strategy: strat, MaxRetries: -1,
			})
			if err != nil {
				return
			}
			submitted++
			if submitted == cfg.Requests/2 && env.OnHalfway != nil {
				env.OnHalfway()
			}
			submittedIDs = append(submittedIDs, obj.Spec.ID)
			inflightName[name] = obj.Spec.ID
			idName[obj.Spec.ID] = name
			if cfg.CancelFraction > 0 && rng.Float64() < cfg.CancelFraction {
				id := obj.Spec.ID
				delay := simtime.Duration(rng.Intn(400)) * time.Millisecond
				sched.After(delay, "soak.cancel", func() {
					if pr := ctlplane.Authoritative(ctl, standby); pr != nil {
						if pr.Cancel(id, "soak cancel") == nil {
							res.CancelsIssued++
						}
					}
				})
			}
		}
	})
	pump.Start()

	// Run until every submitted object is terminal (or the horizon trips).
	limitAt := sched.Now() + cfg.Horizon
	for sched.Now() < limitAt {
		sched.RunFor(1 * 1e9)
		if submitted >= cfg.Requests && len(done) >= submitted {
			break
		}
	}
	pump.Stop()

	// Stop every periodic service, then drain to quiescence.
	ctl.Stop()
	standby.Stop()
	for _, cd := range conds {
		cd.Stop()
	}
	for _, a := range agents {
		a.Stop()
	}
	sched.RunFor(2 * 1e9) // let in-flight engine work settle
	sampler.Stop()        // the drain below must not chase sampler ticks forever
	for _, n := range workers {
		for _, p := range n.Processes() {
			n.StopLoop(p)
		}
	}
	leak := f.drain()
	res.PendingAfterDrain = sched.Pending()

	// ---- audits ----
	// The surviving primary is authoritative; objects a fenced ex-primary
	// parked before its replicas ever flowed exist only on that side.
	auth, other := ctl, standby
	if !auth.Primary || !auth.Node.Alive {
		auth, other = standby, ctl
	}
	lookup := func(id uint64) *ctlplane.Object {
		if obj := auth.Get(id); obj != nil {
			return obj
		}
		return other.Get(id)
	}
	// The quiescent forms run through the same dedup as the mid-run ones:
	// a violation already reported in its containing sample window is not
	// re-reported here.
	found := append(objectsTerminal(submittedIDs, lookup, idName), audit(true)...)
	for _, msg := range append(found, leak...) {
		if violate(msg) {
			res.Violations = append(res.Violations, msg)
		}
	}

	res.Requests = submitted
	for _, id := range submittedIDs {
		obj := lookup(id)
		if obj == nil {
			continue
		}
		res.Retries += obj.Status.Retries
		switch obj.Status.State {
		case ctlplane.Succeeded:
			res.Succeeded++
		case ctlplane.Failed:
			res.Failed++
			if len(res.FailureCauses) < 8 {
				res.FailureCauses = append(res.FailureCauses,
					fmt.Sprintf("#%d %s: %s", id, idName[id], strings.Join(obj.Status.Cause, " | ")))
			}
		case ctlplane.Aborted:
			res.Aborted++
		}
	}
	res.EngineStarted, res.EngineCompleted, res.EngineAborted = engineLedger(agents, migrators)
	for _, a := range agents {
		res.Dedups += a.Deduped
		res.StaleCtl += a.StaleCtl
	}
	for _, m := range migrators {
		for _, mt := range m.Completed {
			res.DowntimesUs = append(res.DowntimesUs,
				float64(mt.FreezeTime+mt.StallTime)/float64(time.Microsecond))
		}
	}
	res.Dispatches = ctl.Dispatches + standby.Dispatches
	res.Resends = ctl.Resends + standby.Resends
	res.Takeovers = ctl.Takeovers + standby.Takeovers
	res.Demotions = ctl.Demotions + standby.Demotions

	res.TraceHash = f.digest.h

	// Close the final partial window: the teardown tail gets sampled and
	// audited like every full window, then the capture folds the series
	// and SLO verdicts in.
	sampler.Flush()
	if sloEng != nil {
		res.SLO = sloEng.Results()
	}
	res.Obs = f.capture(label)
	if res.FlightDump == "" {
		// Teardown-only discovery (sampling off, or a violation only
		// expressible at quiescence): dump without a window anchor.
		res.FlightDump = f.flightDump()
	}
	return res, nil
}
