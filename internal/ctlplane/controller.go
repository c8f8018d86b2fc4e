package ctlplane

import (
	"fmt"
	"sort"
	"time"

	"dvemig/internal/epoch"
	"dvemig/internal/migration"
	"dvemig/internal/netsim"
	"dvemig/internal/netstack"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
)

// Config is the controller's reconcile policy.
type Config struct {
	// Period is the reconcile tick.
	Period simtime.Duration
	// Retry is the backoff between migration attempts — the same
	// BackoffPolicy the engine uses for connect retries, with
	// seed-deterministic jitter so a fleet of retries does not
	// thundering-herd a recovering node.
	Retry migration.BackoffPolicy
	// MaxRetries bounds re-dispatches per object (Spec.MaxRetries < 0
	// inherits this).
	MaxRetries int
	// Deadline bounds an object submit → terminal (Spec.Deadline == 0
	// inherits this).
	Deadline simtime.Duration
	// CancelGrace is how long after a deadline-triggered cancel the
	// controller waits for the abort to land before parking the object.
	CancelGrace simtime.Duration
	// ProbeAfter is the level-triggered resend: while an attempt is
	// dispatched or running and nothing has been heard for this long,
	// the (idempotent) run directive is re-sent.
	ProbeAfter simtime.Duration
	// HelloPeriod paces primary → standby heartbeats; TakeoverAfter is
	// the primary-silence threshold at which the standby takes over.
	HelloPeriod   simtime.Duration
	TakeoverAfter simtime.Duration
	// Seed feeds the retry-jitter RNG.
	Seed uint64
}

// DefaultConfig returns the policy used by the soak harness.
func DefaultConfig() Config {
	return Config{
		Period:        100 * time.Millisecond,
		Retry:         migration.BackoffPolicy{Base: 300 * time.Millisecond, Max: 5 * time.Second, Jitter: 0.3},
		MaxRetries:    2,
		Deadline:      30 * time.Second,
		CancelGrace:   5 * time.Second,
		ProbeAfter:    1 * time.Second,
		HelloPeriod:   500 * time.Millisecond,
		TakeoverAfter: 2500 * time.Millisecond,
		Seed:          1,
	}
}

func (c Config) maxRetries(o *Object) int {
	if o.Spec.MaxRetries >= 0 {
		return o.Spec.MaxRetries
	}
	return c.MaxRetries
}

func (c Config) deadline(o *Object) simtime.Duration {
	if o.Spec.Deadline > 0 {
		return o.Spec.Deadline
	}
	return c.Deadline
}

// Controller reconciles Migration objects: it admits, dispatches,
// retries, cancels and parks them, driving per-node agents over the
// simulated network. Exactly one controller is primary at a time; a
// standby mirrors the object store via replication and takes over under
// a bumped controller epoch when the primary goes silent.
type Controller struct {
	Node   *proc.Node
	Config Config
	// Primary is true while this controller reconciles. The standby
	// flips it on takeover; a fenced ex-primary flips it off.
	Primary bool

	sock   *netstack.UDPSocket
	wbuf   []byte // scratch every outgoing frame is appended into
	ticker *simtime.Ticker
	peer   netsim.Addr // the other controller (0 = run without standby)

	epoch     uint64 // this controller's epoch while primary
	seenEpoch uint64 // highest epoch observed from the peer
	nextID    uint64

	objects map[uint64]*Object
	order   []uint64 // every object ever stored, in submission order
	// live holds the non-terminal objects, sorted by their position in
	// order (Object.ord). It is what tick, takeover and demoteTo walk, so
	// a reconcile pass costs the objects in flight, not every object ever
	// submitted. Invariant: live == [o ∈ order : !o.Terminal()], in order
	// order — park removes, Submit and applyReplica insert.
	live     []*Object
	inflight map[string]uint64 // service name → non-terminal object ID
	homes    map[string]netsim.Addr
	epochs   *epoch.Table // observed ownership epochs (admission fence)
	rng      *simtime.Rand

	helloSeq  uint64
	lastHello simtime.Time // standby: last hello heard (or construction)
	lastSent  simtime.Time // primary: last hello sent

	// OnTransition, when set, observes every state transition (used by
	// the crash-matrix tests to kill the controller at a chosen state).
	OnTransition func(o *Object, from, to State)

	// Counters for audits and the soak report.
	Takeovers   uint64
	Demotions   uint64
	Dispatches  uint64
	Resends     uint64
	StaleEvents uint64
}

// NewController starts a controller service on a node. peer is the
// other controller's address (zero = no standby); primary picks the
// initial role. The primary starts at controller epoch 1, the standby
// at 0 — a takeover always bumps past everything it has seen.
func NewController(n *proc.Node, peer netsim.Addr, primary bool, cfg Config) (*Controller, error) {
	c := &Controller{
		Node: n, Config: cfg, Primary: primary, peer: peer,
		objects:  make(map[uint64]*Object),
		inflight: make(map[string]uint64),
		homes:    make(map[string]netsim.Addr),
		epochs:   epoch.NewTable(),
		rng:      simtime.NewRand(cfg.Seed ^ 0x63746c706c616e65),
		nextID:   1,
	}
	if primary {
		c.epoch = 1
	}
	c.lastHello = n.Sched.Now()
	c.sock = netstack.NewUDPSocket(n.Stack)
	if err := c.sock.Bind(n.LocalIP, CtlPort); err != nil {
		return nil, fmt.Errorf("ctlplane controller: %w", err)
	}
	c.sock.OnReadable = c.serve
	c.ticker = simtime.NewTicker(n.Sched, cfg.Period, "ctlplane/"+n.Name, func() { c.tick() })
	c.ticker.Start()
	return c, nil
}

// Stop halts the reconcile loop and closes the socket (harnesses call
// this before draining the scheduler).
func (c *Controller) Stop() {
	c.ticker.Stop()
	c.sock.Close()
}

// Epoch returns the controller epoch this instance last acted under.
func (c *Controller) Epoch() uint64 { return c.epoch }

// Objects returns the object store in submission order.
func (c *Controller) Objects() []*Object {
	out := make([]*Object, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.objects[id])
	}
	return out
}

// Get returns one object by ID.
func (c *Controller) Get(id uint64) *Object { return c.objects[id] }

// Submit creates a Migration object in Pending; the reconcile loop
// takes it from there. Only the primary accepts submissions.
func (c *Controller) Submit(spec Spec) (*Object, error) {
	if !c.Primary {
		return nil, fmt.Errorf("ctlplane: not primary")
	}
	// IDs carry the assigning epoch in the high bits so a fenced
	// ex-primary and its successor can never mint the same ID during a
	// split-brain window.
	spec.ID = c.epoch<<32 | (c.nextID & 0xFFFFFFFF)
	c.nextID++
	o := &Object{Spec: spec, ord: len(c.order)}
	o.Status.SubmitAt = c.Node.Sched.Now()
	c.objects[spec.ID] = o
	c.order = append(c.order, spec.ID)
	c.live = append(c.live, o) // the newest ord sorts last
	c.replicate(o)
	return o, nil
}

// Cancel is the abort verb. A Pending or never-dispatched object parks
// in Aborted immediately; an in-flight one gets a cancel directive and
// lands in Aborted when the engine's rollback confirms (or stays on
// course if it was already past the point of no return).
func (c *Controller) Cancel(id uint64, reason string) error {
	o := c.objects[id]
	if o == nil {
		return fmt.Errorf("ctlplane: no object %d", id)
	}
	if o.Terminal() {
		return fmt.Errorf("ctlplane: object %d already %s", id, o.Status.State)
	}
	if !c.Primary {
		return fmt.Errorf("ctlplane: not primary")
	}
	if o.Status.State == Pending || (o.Status.State == Scheduling && o.dispatched == 0) {
		o.addCause("canceled before dispatch: %s", reason)
		c.park(o, Aborted)
		return nil
	}
	o.Status.CancelRequested = true
	o.addCause("cancel requested: %s", reason)
	c.sendCancel(o, reason)
	c.replicate(o)
	return nil
}

// --- reconcile loop --------------------------------------------------------

func (c *Controller) tick() {
	if !c.Node.Alive {
		return
	}
	now := c.Node.Sched.Now()
	if !c.Primary {
		// Standby: watch for primary silence.
		if c.peer != 0 && now-c.lastHello > c.Config.TakeoverAfter {
			c.takeover(now)
		}
		return
	}
	if c.peer != 0 && (c.lastSent == 0 || now-c.lastSent >= c.Config.HelloPeriod) {
		c.helloSeq++
		c.wbuf = helloMsg{CtlEpoch: c.epoch, Seq: c.helloSeq}.appendTo(c.wbuf[:0])
		_ = c.sock.SendTo(c.peer, CtlPort, c.wbuf)
		c.lastSent = now
	}
	// reconcile may park o — and only o — which removes it from c.live
	// and slides its successor into slot i.
	for i := 0; i < len(c.live); {
		o := c.live[i]
		c.reconcile(o, now)
		if !o.Terminal() {
			i++
		}
	}
}

// setLive brings c.live in line with o's state: a non-terminal o is
// inserted at its order position unless it is there already, a terminal
// one is removed.
func (c *Controller) setLive(o *Object) {
	i := sort.Search(len(c.live), func(i int) bool { return c.live[i].ord >= o.ord })
	present := i < len(c.live) && c.live[i].ord == o.ord
	switch {
	case o.Terminal():
		if present {
			c.live = append(c.live[:i], c.live[i+1:]...)
		}
	case !present:
		c.live = append(c.live, nil)
		copy(c.live[i+1:], c.live[i:])
		c.live[i] = o
	}
}

// takeover promotes the standby: bump the controller epoch past
// everything seen, then re-drive every non-terminal object. The agents'
// dedup log makes the re-drive exactly-once — a replayed attempt
// answers with its recorded outcome instead of migrating again.
func (c *Controller) takeover(now simtime.Time) {
	c.Primary = true
	if c.seenEpoch > c.epoch {
		c.epoch = c.seenEpoch
	}
	c.epoch++
	c.Takeovers++
	for _, o := range c.live {
		// Force an immediate (re-)dispatch; the runtime fields were not
		// replicated, so rebuild them conservatively.
		o.nextAt = now
		o.lastSent = 0
		if o.Status.State == Running {
			// Probe: the attempt may have finished while we were blind.
			o.dispatched = 0
		}
	}
}

func (c *Controller) reconcile(o *Object, now simtime.Time) {
	// Deadline first: it bounds the whole object, every retry included.
	dl := o.Status.SubmitAt + c.Config.deadline(o)
	if now > dl {
		switch {
		case o.Status.State == Pending || (o.Status.State == Scheduling && o.dispatched == 0):
			o.addCause("deadline exceeded before dispatch")
			c.park(o, Failed)
			return
		case !o.Status.CancelRequested && !o.cancelRefused:
			o.Status.CancelRequested = true
			o.deadlined = true
			o.addCause("deadline exceeded; canceling attempt %d", o.Status.Attempt)
			c.sendCancel(o, "deadline exceeded")
			c.replicate(o)
			return
		case now > dl+c.Config.CancelGrace:
			// The cancel never confirmed (partition, or past the point of
			// no return with the success event lost). Park rather than
			// hot-loop; the soak audit cross-checks actual ownership.
			o.addCause("deadline cancel unconfirmed after %v; parking", c.Config.CancelGrace)
			c.park(o, Failed)
			return
		}
		if !o.cancelRefused {
			return // waiting on the cancel to confirm
		}
		// The engine refused the cancel: the migration is past its commit
		// fence and an outcome event is imminent. Keep probing (the agent
		// re-sends a lost outcome) until it lands or the grace parks us.
	}
	switch o.Status.State {
	case Pending:
		c.admit(o, now)
	case Scheduling:
		if now >= o.nextAt {
			c.dispatch(o, now)
		}
	case Running:
		if now-o.lastSent >= c.Config.ProbeAfter {
			c.dispatch(o, now) // idempotent probe; answers with the outcome
		}
	}
}

// admit runs the control-plane admission checks — everything that can
// be rejected before any state moves is rejected here.
func (c *Controller) admit(o *Object, now simtime.Time) {
	fail := func(format string, args ...any) {
		o.addCause(format, args...)
		c.park(o, Failed)
	}
	name := o.Spec.Name
	switch {
	case o.Spec.Dest == o.Spec.Source:
		fail("admission: destination equals source")
	case o.Spec.Source == 0 || o.Spec.Dest == 0:
		fail("admission: missing source or destination")
	case c.inflight[name] != 0 && c.inflight[name] != o.Spec.ID:
		fail("admission: %q already has migration #%d in flight", name, c.inflight[name])
	case c.homes[name] == o.Spec.Dest:
		fail("admission: %q already owned by destination", name)
	case o.Spec.Epoch != 0 && c.epochs.Stale(name, o.Spec.Epoch):
		fail("admission: ownership epoch %d for %q is stale (watermark %d)",
			o.Spec.Epoch, name, c.epochs.Current(name))
	default:
		c.inflight[name] = o.Spec.ID
		o.Status.Attempt = 1
		o.nextAt = now
		c.transition(o, Scheduling)
		c.dispatch(o, now)
	}
}

// dispatch (re)sends the current attempt's run directive to the source
// agent. Safe to repeat: the agent dedups on (object, attempt).
func (c *Controller) dispatch(o *Object, now simtime.Time) {
	m := runMsg{
		CtlEpoch: c.epoch,
		ObjID:    o.Spec.ID,
		Attempt:  uint32(o.Status.Attempt),
		PID:      uint32(o.Spec.PID),
		Dest:     o.Spec.Dest,
		SvcEpoch: o.Spec.Epoch,
		Strategy: o.Spec.Strategy,
		Name:     o.Spec.Name,
	}
	c.wbuf = m.appendTo(c.wbuf[:0])
	_ = c.sock.SendTo(o.Spec.Source, AgentPort, c.wbuf)
	o.dispatched++
	o.lastSent = now
	o.nextAt = now + c.Config.ProbeAfter
	if o.dispatched > 1 {
		c.Resends++
	} else {
		c.Dispatches++
	}
}

func (c *Controller) sendCancel(o *Object, reason string) {
	m := cancelMsg{CtlEpoch: c.epoch, ObjID: o.Spec.ID,
		Attempt: uint32(o.Status.Attempt), Reason: reason}
	c.wbuf = m.appendTo(c.wbuf[:0])
	_ = c.sock.SendTo(o.Spec.Source, AgentPort, c.wbuf)
}

// park moves an object to a terminal state, which drops it from the
// live set, and releases its inflight slot. The cause chain explains how
// it got there.
func (c *Controller) park(o *Object, st State) {
	o.Status.DoneAt = c.Node.Sched.Now()
	if c.inflight[o.Spec.Name] == o.Spec.ID {
		delete(c.inflight, o.Spec.Name)
	}
	c.transition(o, st)
}

func (c *Controller) transition(o *Object, to State) {
	from := o.Status.State
	o.Status.State = to
	if to.Terminal() {
		c.setLive(o)
	}
	if c.OnTransition != nil {
		c.OnTransition(o, from, to)
	}
	c.replicate(o)
}

func (c *Controller) replicate(o *Object) {
	if c.peer != 0 && c.Primary {
		c.wbuf = appendReplicate(c.wbuf[:0], c.epoch, o)
		_ = c.sock.SendTo(c.peer, CtlPort, c.wbuf)
	}
}

// --- message handling ------------------------------------------------------

func (c *Controller) serve() {
	for {
		dg, ok := c.sock.Recv()
		if !ok {
			return
		}
		if len(dg.Payload) == 0 {
			continue
		}
		switch dg.Payload[0] {
		case opEvent:
			if ev, err := decodeEventMsg(dg.Payload); err == nil {
				c.handleEvent(ev)
			}
		case opHello:
			if m, err := decodeHelloMsg(dg.Payload); err == nil {
				c.handleHello(m)
			}
		case opReplicate:
			var o Object
			if ep, err := decodeReplicate(&o, dg.Payload, c.objects); err == nil {
				c.applyReplica(ep, &o)
			}
		}
	}
}

// handleHello tracks the peer's liveness and epoch. If two controllers
// ever both believe they are primary (the old one was partitioned, not
// dead), the higher epoch wins and the other demotes.
func (c *Controller) handleHello(m helloMsg) {
	if m.CtlEpoch > c.seenEpoch {
		c.seenEpoch = m.CtlEpoch
	}
	c.lastHello = c.Node.Sched.Now()
	if c.Primary && m.CtlEpoch > c.epoch {
		c.demoteTo(m.CtlEpoch)
	}
}

// demoteTo fences this controller: a peer with a higher epoch owns the
// cluster now. Every non-terminal object in the local store parks in
// Failed with the fence recorded — a fenced controller can neither
// dispatch nor observe outcomes, so pretending its objects were still
// progressing would strand their clients forever. Anything replicated
// before the fence lives on authoritatively under the new primary.
func (c *Controller) demoteTo(ep uint64) {
	if !c.Primary {
		return
	}
	c.Primary = false
	c.Demotions++
	for len(c.live) > 0 {
		o := c.live[0] // park removes it
		o.addCause("controller fenced by epoch %d", ep)
		c.park(o, Failed)
	}
}

// applyReplica installs the primary's view of one object on the
// standby: a copy of *view, written over the version the store holds (so
// whoever holds the *Object sees the update) or stored as a new object.
// Stale-epoch replicas (from a fenced ex-primary) are dropped.
func (c *Controller) applyReplica(ep uint64, view *Object) {
	if c.Primary {
		return // a primary never overwrites its own authoritative store
	}
	if ep < c.seenEpoch {
		return
	}
	if ep > c.seenEpoch {
		c.seenEpoch = ep
	}
	c.lastHello = c.Node.Sched.Now()
	id := view.Spec.ID
	o, known := c.objects[id]
	if !known {
		o = &Object{ord: len(c.order)}
		c.order = append(c.order, id)
		c.objects[id] = o
	}
	// The runtime fields are not replicated: all but the position go back
	// to zero, for takeover to rebuild.
	*o = Object{Spec: view.Spec, Status: view.Status, ord: o.ord}
	// Not just an append: a demoted ex-primary parked its in-flight
	// objects as Failed "controller fenced", and the new primary's
	// replicas bring them back to life in the middle of the order.
	c.setLive(o)
	if seq := id & 0xFFFFFFFF; seq >= c.nextID {
		c.nextID = seq + 1
	}
	name := o.Spec.Name
	if o.Terminal() {
		if c.inflight[name] == id {
			delete(c.inflight, name)
		}
		if o.Status.State == Succeeded {
			c.homes[name] = o.Spec.Dest
		}
	} else if o.Status.State != Pending {
		c.inflight[name] = id
	}
}

func (c *Controller) handleEvent(ev eventMsg) {
	if ev.CtlEpoch > c.epoch {
		// An agent has seen a newer controller: we were superseded.
		if ev.CtlEpoch > c.seenEpoch {
			c.seenEpoch = ev.CtlEpoch
		}
		c.demoteTo(ev.CtlEpoch)
		if ev.Kind == evStaleCtl {
			return
		}
	}
	if !c.Primary {
		c.StaleEvents++
		return
	}
	o := c.objects[ev.ObjID]
	if o == nil {
		c.StaleEvents++
		return
	}
	// Every event advances the ownership-epoch watermark the admission
	// check fences against.
	if ev.SvcEpoch != 0 {
		c.epochs.Observe(o.Spec.Name, ev.SvcEpoch)
	}
	if o.Terminal() {
		return // duplicate delivery after the object settled
	}
	if int(ev.Attempt) != o.Status.Attempt {
		// An event for a superseded attempt (duplicated datagram from a
		// retry ago) must not decide the current one.
		c.StaleEvents++
		return
	}
	now := c.Node.Sched.Now()
	switch ev.Kind {
	case evAccepted:
		if o.Status.State == Scheduling {
			c.transition(o, Running)
		}
		o.lastSent = now // quiet the probe for another ProbeAfter
	case evRejected:
		o.addCause("%s", ev.Detail)
		c.park(o, Failed)
	case evSucceeded:
		c.homes[o.Spec.Name] = o.Spec.Dest
		if o.Status.CancelRequested {
			o.addCause("cancel lost the race: migration committed")
		}
		c.park(o, Succeeded)
	case evAborted, evBusy:
		if o.Status.CancelRequested || o.deadlined {
			o.addCause("attempt %d aborted: %s", o.Status.Attempt, ev.Detail)
			if o.deadlined {
				c.park(o, Failed) // deadline is a failure, not an operator abort
			} else {
				c.park(o, Aborted)
			}
			return
		}
		o.addCause("attempt %d %s: %s", o.Status.Attempt, evKindString(ev.Kind), ev.Detail)
		if o.Status.Retries >= c.Config.maxRetries(o) {
			o.addCause("retries exhausted after %d attempts", o.Status.Attempt)
			c.park(o, Failed)
			return
		}
		o.Status.Retries++
		o.Status.Attempt++
		o.dispatched = 0
		o.nextAt = now + c.Config.Retry.Delay(o.Status.Retries, c.rng)
		if o.Status.State != Scheduling {
			c.transition(o, Scheduling)
		} else {
			c.replicate(o)
		}
	case evCancelRefused:
		o.Status.CancelRequested = false
		o.cancelRefused = true
		o.addCause("cancel refused: %s", ev.Detail)
		c.replicate(o)
	}
}
