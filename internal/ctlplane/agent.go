package ctlplane

import (
	"fmt"

	"dvemig/internal/lb"
	"dvemig/internal/migration"
	"dvemig/internal/netsim"
	"dvemig/internal/netstack"
	"dvemig/internal/obs"
	"dvemig/internal/proc"
)

// Agent is the per-node control-plane agent: it receives run/cancel
// directives from the controller, performs the node-local admission
// checks (process present and running, ownership epoch not stale),
// takes the lb conductor's migration slot when one is attached, drives
// the migration engine, and reports watch events back.
//
// Exactly-once: every (object, attempt) pair is recorded in a dedup
// log. A re-sent or replayed run directive — a controller probe, a
// duplicated datagram, a standby resuming after takeover — answers
// with the recorded outcome instead of driving the engine again.
// Controller fencing: directives carry the controller epoch; anything
// below the agent's watermark is refused with a stale-ctl event, so a
// superseded primary can never race the standby that replaced it.
type Agent struct {
	Node *proc.Node
	Mig  *migration.Migrator
	// Cond, when set, is the node's lb conductor: the agent claims its
	// one-migration-at-a-time slot for the duration of each attempt, so
	// the conductor's own balancing and the control plane never drive
	// the same node concurrently. Released synchronously in the
	// migration's done callback — early aborts included.
	Cond *lb.Conductor

	sock     *netstack.UDPSocket
	wbuf     []byte // scratch every outgoing event is appended into
	ctlEpoch uint64
	ctlAddr  netsim.Addr
	runs     map[uint64]*agentRun

	// Started counts migrations actually handed to the engine; Deduped
	// counts run directives answered from the dedup log; StaleCtl
	// counts directives refused by the controller-epoch fence; Rejected
	// counts admission refusals. The soak audit sums these across
	// agents: Started must equal the number of distinct (object,
	// attempt) pairs that ever reached the engine.
	Started  uint64
	Deduped  uint64
	StaleCtl uint64
	Rejected uint64
}

// agentRun is the dedup log entry for one object on this agent.
type agentRun struct {
	attempt uint32
	pid     int
	name    string
	done    bool
	kind    byte // terminal event kind once done
	reason  string
	locked  bool // holds the conductor's migration slot
}

// NewAgent starts the agent service on a node that runs a migrator.
func NewAgent(n *proc.Node, mig *migration.Migrator, cond *lb.Conductor) (*Agent, error) {
	a := &Agent{Node: n, Mig: mig, Cond: cond, runs: make(map[uint64]*agentRun)}
	a.sock = netstack.NewUDPSocket(n.Stack)
	if err := a.sock.Bind(n.LocalIP, AgentPort); err != nil {
		return nil, fmt.Errorf("ctlplane agent: %w", err)
	}
	a.sock.OnReadable = a.serve
	return a, nil
}

// Stop closes the agent's socket.
func (a *Agent) Stop() { a.sock.Close() }

func (a *Agent) serve() {
	for {
		dg, ok := a.sock.Recv()
		if !ok {
			return
		}
		if len(dg.Payload) == 0 {
			continue
		}
		switch dg.Payload[0] {
		case opRun:
			if m, err := decodeRunMsg(dg.Payload); err == nil {
				a.handleRun(dg.SrcIP, m)
			}
		case opCancel:
			if m, err := decodeCancelMsg(dg.Payload); err == nil {
				a.handleCancel(dg.SrcIP, m)
			}
		}
	}
}

// fence ratchets the agent's controller-epoch watermark. A directive
// below the watermark is answered (to its sender, not the current
// controller) with a stale-ctl event so a partitioned-away ex-primary
// learns it was superseded and demotes itself.
func (a *Agent) fence(from netsim.Addr, ctlEpoch, objID uint64, attempt uint32) bool {
	if ctlEpoch < a.ctlEpoch {
		a.StaleCtl++
		ev := eventMsg{CtlEpoch: a.ctlEpoch, ObjID: objID, Attempt: attempt, Kind: evStaleCtl}
		a.wbuf = ev.appendTo(a.wbuf[:0])
		_ = a.sock.SendTo(from, CtlPort, a.wbuf)
		return false
	}
	a.ctlEpoch = ctlEpoch
	a.ctlAddr = from
	return true
}

// event reports a watch event to the current controller, stamped with
// the agent's controller-epoch watermark and the service's current
// ownership epoch.
func (a *Agent) event(objID uint64, attempt uint32, kind byte, name, detail string) {
	ev := eventMsg{CtlEpoch: a.ctlEpoch, ObjID: objID, Attempt: attempt,
		Kind: kind, SvcEpoch: a.Mig.Epochs.Current(name), Detail: detail}
	a.wbuf = ev.appendTo(a.wbuf[:0])
	_ = a.sock.SendTo(a.ctlAddr, CtlPort, a.wbuf)
}

// procByPID finds the running process, if it lives here.
func (a *Agent) procByPID(pid int) *proc.Process {
	for _, p := range a.Node.Processes() {
		if p.PID == pid {
			return p
		}
	}
	return nil
}

func (a *Agent) handleRun(from netsim.Addr, m runMsg) {
	if !a.fence(from, m.CtlEpoch, m.ObjID, m.Attempt) {
		return
	}
	if r := a.runs[m.ObjID]; r != nil {
		switch {
		case r.attempt == m.Attempt && r.done:
			// Replay of a decided attempt: answer with the recorded
			// outcome — the exactly-once core.
			a.Deduped++
			a.event(m.ObjID, r.attempt, r.kind, r.name, r.reason)
			return
		case r.attempt == m.Attempt:
			// Probe of the in-flight attempt: it is running.
			a.Deduped++
			a.event(m.ObjID, r.attempt, evAccepted, r.name, "")
			return
		case !r.done:
			// A different attempt while one is still in flight: refuse —
			// driving both would double-migrate the process.
			a.event(m.ObjID, m.Attempt, evBusy, r.name, "another attempt in flight")
			return
		case m.Attempt < r.attempt:
			// Stale duplicate of a superseded attempt; drop.
			a.Deduped++
			return
		}
	}
	// Fresh attempt: admission before anything moves.
	p := a.procByPID(int(m.PID))
	switch {
	case p == nil || p.State != proc.ProcRunning:
		a.Rejected++
		a.event(m.ObjID, m.Attempt, evRejected, m.Name,
			fmt.Sprintf("admission: process %d not running on %s", m.PID, a.Node.Name))
		return
	case m.Name != "" && p.Name != m.Name:
		a.Rejected++
		a.event(m.ObjID, m.Attempt, evRejected, m.Name,
			fmt.Sprintf("admission: pid %d is %q, not %q", m.PID, p.Name, m.Name))
		return
	case m.Dest == a.Node.LocalIP:
		a.Rejected++
		a.event(m.ObjID, m.Attempt, evRejected, m.Name, "admission: already at destination")
		return
	case m.SvcEpoch != 0 && a.Mig.Epochs.Stale(m.Name, m.SvcEpoch):
		a.Rejected++
		a.event(m.ObjID, m.Attempt, evRejected, m.Name,
			fmt.Sprintf("admission: stale epoch %d for %q (watermark %d)",
				m.SvcEpoch, m.Name, a.Mig.Epochs.Current(m.Name)))
		return
	}
	var strat *migration.Strategy
	if m.Strategy != "" {
		st, err := migration.StrategyByName(m.Strategy)
		if err != nil {
			a.Rejected++
			a.event(m.ObjID, m.Attempt, evRejected, m.Name, "admission: "+err.Error())
			return
		}
		strat = st
	} else {
		strat = a.Mig.Config.Mig
	}
	r := &agentRun{attempt: m.Attempt, pid: int(m.PID), name: m.Name}
	if a.Cond != nil {
		if !a.Cond.TryAcquireMigration() {
			// Retryable without rollback: nothing moved, the conductor is
			// mid-transfer. Record it as decided so a replay of this
			// attempt does not later start a migration the controller
			// already retried past.
			r.done, r.kind, r.reason = true, evBusy, "lb migration slot busy"
			a.runs[m.ObjID] = r
			a.event(m.ObjID, m.Attempt, evBusy, m.Name, r.reason)
			return
		}
		r.locked = true
	}
	a.runs[m.ObjID] = r
	a.Started++
	a.event(m.ObjID, m.Attempt, evAccepted, m.Name, "")
	a.Mig.MigrateWith(p, m.Dest, strat, obs.TraceContext{}, func(_ *migration.Metrics, err error) {
		// The slot frees the instant the engine decides — the
		// early-abort path (connect refused, admission races) included;
		// the conductor can balance again without waiting for a tick.
		if r.locked {
			a.Cond.ReleaseMigration()
			r.locked = false
		}
		r.done = true
		if err != nil {
			r.kind, r.reason = evAborted, err.Error()
		} else {
			r.kind = evSucceeded
		}
		a.event(m.ObjID, r.attempt, r.kind, r.name, r.reason)
	})
}

func (a *Agent) handleCancel(from netsim.Addr, m cancelMsg) {
	if !a.fence(from, m.CtlEpoch, m.ObjID, m.Attempt) {
		return
	}
	r := a.runs[m.ObjID]
	if r == nil {
		// Nothing started here — but a reordered run directive may still
		// be in flight. Record a tombstone so it dedups into "canceled"
		// instead of starting a migration for a parked object.
		a.runs[m.ObjID] = &agentRun{attempt: m.Attempt, done: true,
			kind: evAborted, reason: "canceled before start"}
		a.event(m.ObjID, m.Attempt, evAborted, "", "canceled before start")
		return
	}
	if r.done {
		a.event(m.ObjID, r.attempt, r.kind, r.name, r.reason)
		return
	}
	if a.Mig.Cancel(r.pid, m.Reason) {
		// The engine's done callback (above) already reported evAborted
		// synchronously.
		return
	}
	// Past the post-copy point of no return: the migration commits.
	a.event(m.ObjID, r.attempt, evCancelRefused, r.name, "past point of no return")
}
