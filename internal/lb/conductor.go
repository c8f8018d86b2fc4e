// Package lb implements the decentralized dynamic load-balancing
// middleware of §IV: the conductor daemon (cond) that discovers peers,
// monitors local resource consumption (the role atop plays in the paper),
// exchanges periodic load broadcasts, and instruments process migrations
// according to the four classic policies — transfer, location, selection
// and information [Shivaratri/Krueger/Singhal].
package lb

import (
	"encoding/binary"
	"fmt"
	"slices"

	"dvemig/internal/migration"
	"dvemig/internal/netsim"
	"dvemig/internal/netstack"
	"dvemig/internal/obs"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
	"dvemig/internal/wire"
)

// CondPort is the UDP port conductor daemons use.
const CondPort = 7901

// Config tunes the conductor.
type Config struct {
	// Period between monitoring/broadcast ticks (information policy).
	Period simtime.Duration
	// ImbalanceThreshold: load-minus-cluster-average above which the node
	// initiates a migration even below highThreshold.
	ImbalanceThreshold float64
	// CalmDown is the post-migration stabilization period on both ends.
	CalmDown simtime.Duration
}

// DefaultConfig mirrors the evaluation setup.
func DefaultConfig() Config {
	return Config{
		Period:             1e9, // 1s
		ImbalanceThreshold: 0.12,
		CalmDown:           15e9, // 15s
	}
}

// The transfer policy's fixed thresholds and the load signal's smoothing.
const (
	// highThreshold: load above which a node is overloaded outright.
	highThreshold = 0.90
	// ewma is the weight of the new utilisation sample in the load signal.
	ewma = 0.5
	// scanMax bounds the discovery scan of the local /24.
	scanMax byte = 32
)

// The failure detector's fixed windows. peerTimeout expires silent peers
// (missed heartbeats); deadRetention keeps dead peer entries around —
// still heartbeated — so a healed node relearns the cluster quickly and
// hears the new owner's advertisements, and GCs them after
// peerTimeout+deadRetention of silence.
const (
	peerTimeout   simtime.Duration = 4e9
	deadRetention simtime.Duration = 60e9
)

type condState int

const (
	stateIdle condState = iota
	stateSending
	stateReceiving
)

// PeerState is the failure detector's verdict on a peer. The zero value
// is PeerAlive so freshly noted peers start healthy.
type PeerState int

// Detector states: Alive → Suspect (age > suspectAfter) → Dead
// (age > peerTimeout), with revival on any heartbeat. PeerUnknown is
// returned for addresses the conductor has never seen (or GC'd).
const (
	PeerAlive PeerState = iota
	PeerSuspect
	PeerDead
	PeerUnknown
)

func (s PeerState) String() string {
	switch s {
	case PeerAlive:
		return "alive"
	case PeerSuspect:
		return "suspect"
	case PeerDead:
		return "dead"
	}
	return "unknown"
}

type peerInfo struct {
	addr     netsim.Addr
	load     float64
	lastSeen simtime.Time
	state    PeerState
}

// Event records one load-balancing or failover decision, for the
// experiment logs.
type Event struct {
	At   simtime.Time
	Kind string // "migrate-out", "migrate-in", "reject", "abort", "suspect", "peer-dead", "revived", "claim", "activate", "fence", "suspend", "resume"
	Peer netsim.Addr
	PID  int
	Load float64
	// Name carries the service name for failover events.
	Name string
	// Err carries the failure for "abort" events.
	Err string
}

// Conductor is one node's cond daemon.
type Conductor struct {
	Node   *proc.Node
	Mig    *migration.Migrator
	Config Config

	sock   *netstack.UDPSocket
	wbuf   []byte // frame scratch for the variable-length messages (ownerMsg)
	ticker *simtime.Ticker

	peers map[netsim.Addr]*peerInfo
	// peerOrder is the keys of peers, ascending: the order every walk that
	// sends or decides goes in. A peer noted for the first time or finally
	// forgotten replaces the list, never edits it, so tick's walk, which
	// forgets peers and (through onPeerDead) broadcasts to them all from
	// inside the loop, ranges over the list it started with.
	peerOrder []netsim.Addr
	load      float64 // smoothed local load

	state      condState
	calmUntil  simtime.Time
	reserveSeq uint32
	reserveAt  simtime.Time
	nextSeq    uint32

	// extLocked marks the migration slot as held by an external driver
	// (the control plane's node agent): the conductor neither proposes
	// nor accepts transfers while it is set, and none of its own
	// timeouts may clear the state. Acquired/released synchronously via
	// TryAcquireMigration/ReleaseMigration — an early-aborted migration
	// frees the slot the instant its done callback runs, not at the
	// next heartbeat tick.
	extLocked bool

	// Failover state (see failover.go). standby is nil until
	// EnableFailover wires one; owned tracks local service ownerships;
	// claims tracks pending failover elections; maxPeersSeen is the
	// high-water mark of simultaneously known peers (the quorum gate's
	// notion of cluster size); isolatedSince is when the alive-peer count
	// last dropped to zero.
	standby       *migration.Standby
	owned         map[string]*ownership
	claims        map[string]*claim
	maxPeersSeen  int
	isolatedSince simtime.Time
	isolated      bool

	// Events logs decisions; Migrations counts completed outbound moves;
	// Failovers counts standby activations this conductor performed.
	Events     []Event
	Migrations int
	Failovers  int

	// Obs is the node's observability plane (nil = disabled). Attach via
	// SetObs so the metric handles in obsm are pre-resolved.
	Obs  *obs.Obs
	obsm condObsHandles

	// balSpan is the open span of the pending rebalance decision this
	// conductor proposed (sender side; at most one, mirroring the
	// one-proposal-at-a-time state machine). rsvSpan is the receiver-side
	// reservation span, parented via the TraceContext the proposal
	// carried. Both nil when the plane is disabled.
	balSpan *obs.Span
	rsvSpan *obs.Span
}

// Wire opcodes.
const (
	opDiscover      = 1
	opDiscoverReply = 2
	opHeartbeat     = 3
	opPropose       = 4
	opAccept        = 5
	opReject        = 6
	opDone          = 7
	opRelease       = 8
	opOwner         = 9  // ownership advertisement: [op][8B epoch][8B seq][name]
	opClaim         = 10 // failover claim: [op][8B epoch][8B seq][name]
)

// NewConductor starts the daemon on a node that already runs a migration
// service. It binds the conductor port and scans the local network for
// peers (§IV: "the conductor daemon process scans the local network").
func NewConductor(n *proc.Node, mig *migration.Migrator, cfg Config) (*Conductor, error) {
	c := &Conductor{Node: n, Mig: mig, Config: cfg, peers: make(map[netsim.Addr]*peerInfo),
		owned: make(map[string]*ownership), claims: make(map[string]*claim)}
	c.sock = netstack.NewUDPSocket(n.Stack)
	if err := c.sock.Bind(n.LocalIP, CondPort); err != nil {
		return nil, fmt.Errorf("cond: %w", err)
	}
	c.sock.OnReadable = c.serve
	c.ticker = simtime.NewTicker(n.Sched, cfg.Period, "cond.tick", c.tick)
	c.ticker.Start()
	c.scan()
	return c, nil
}

// Stop halts the daemon (node leaving the cluster).
func (c *Conductor) Stop() {
	c.ticker.Stop()
	c.sock.Close()
}

// Load returns the smoothed local load in [0,1].
func (c *Conductor) Load() float64 { return c.load }

// PeerCount returns the live (non-dead) peer count.
func (c *Conductor) PeerCount() int {
	n := 0
	for _, p := range c.peers {
		if p.state != PeerDead {
			n++
		}
	}
	return n
}

// PeerState exposes the failure detector's verdict on a peer, for
// policies and tests.
func (c *Conductor) PeerState(addr netsim.Addr) PeerState {
	p := c.peers[addr]
	if p == nil {
		return PeerUnknown
	}
	return p.state
}

func (c *Conductor) aliveCount() int {
	n := 0
	for _, p := range c.peers {
		if p.state == PeerAlive {
			n++
		}
	}
	return n
}

// ClusterAverage approximates the overall cluster load from the local
// sample and the latest peer broadcasts (§IV: each node maintains "an
// approximation on the overall load of the whole cluster"). Dead peers
// are excluded — their last broadcast describes a machine that no
// longer contributes capacity.
func (c *Conductor) ClusterAverage() float64 {
	sum := c.load
	n := 1.0
	for _, p := range c.peers {
		if p.state == PeerDead {
			continue
		}
		sum += p.load
		n++
	}
	return sum / n
}

// suspectAfter marks a peer suspect after two periods of heartbeat
// silence; peerTimeout then confirms death. Suspect peers stop receiving
// migrations but do not yet trigger failover — a peer that flaps back
// within peerTimeout never causes an activation.
func (c *Conductor) suspectAfter() simtime.Duration { return 2 * c.Config.Period }

func (c *Conductor) now() simtime.Time { return c.Node.Sched.Now() }

// scan probes every address on the local /24 up to scanMax.
func (c *Conductor) scan() {
	base := proc.LocalNet
	for i := byte(1); i <= scanMax; i++ {
		addr := base + netsim.Addr(i)
		if addr == c.Node.LocalIP {
			continue
		}
		c.send(addr, []byte{opDiscover})
	}
}

func (c *Conductor) send(to netsim.Addr, payload []byte) {
	_ = c.sock.SendTo(to, CondPort, payload)
}

func loadMsg(op byte, load float64) []byte {
	b := make([]byte, 9)
	b[0] = op
	binary.BigEndian.PutUint64(b[1:], uint64(load*1e6))
	return b
}

func seqMsg(op byte, seq uint32) []byte {
	b := make([]byte, 5)
	b[0] = op
	binary.BigEndian.PutUint32(b[1:], seq)
	return b
}

// tick is the periodic monitor + information policy + decision step.
func (c *Conductor) tick() {
	// Monitor (atop role): smooth the instantaneous utilisation.
	u := c.Node.Utilization()
	c.load = ewma*u + (1-ewma)*c.load

	// Information policy: periodic broadcast doubling as heartbeat. Dead
	// entries are heartbeated too — a healed node must hear from us to
	// relearn the cluster (and, through the ownership advertisements
	// below, to learn it was superseded).
	hb := loadMsg(opHeartbeat, c.load)
	for _, addr := range c.peerAddrs() {
		c.send(addr, hb)
	}
	c.advertiseOwnership()

	// Failure detector: Alive → Suspect → Dead on heartbeat age, with
	// GC after the retention window. notePeer revives on any message.
	// Sorted iteration keeps the claim broadcasts onPeerDead emits in a
	// deterministic order.
	for _, addr := range c.peerAddrs() {
		p := c.peers[addr]
		age := c.now() - p.lastSeen
		switch {
		case age > peerTimeout+deadRetention:
			delete(c.peers, addr)
			c.peerOrder = slices.DeleteFunc(slices.Clone(c.peerOrder), func(a netsim.Addr) bool { return a == addr })
		case age > peerTimeout:
			if p.state != PeerDead {
				p.state = PeerDead
				c.Events = append(c.Events, Event{At: c.now(), Kind: "peer-dead", Peer: addr})
				c.detectorFlip("dead", addr)
				c.onPeerDead(addr)
			}
		case age > c.suspectAfter():
			if p.state == PeerAlive {
				p.state = PeerSuspect
				c.Events = append(c.Events, Event{At: c.now(), Kind: "suspect", Peer: addr})
				c.detectorFlip("suspect", addr)
			}
		}
	}
	c.checkIsolation()

	// Release a stuck reservation (sender never delivered).
	if c.state == stateReceiving && c.now()-c.reserveAt > 5*c.Config.Period {
		c.state = stateIdle
		c.reserveEnd("expired")
	}

	if c.state != stateIdle || c.now() < c.calmUntil || len(c.peers) == 0 {
		return
	}
	c.considerBalance()
}

// considerBalance implements the sender-initiated transfer policy and the
// location policy of §IV-A/B.
func (c *Conductor) considerBalance() {
	avg := c.ClusterAverage()
	over := c.load > highThreshold || c.load-avg > c.Config.ImbalanceThreshold
	if !over {
		return
	}
	excess := c.load - avg
	// Location policy: a node about as far below the average as we are
	// above it, so both converge to the average after the move.
	var best *peerInfo
	bestScore := 1e18
	for _, addr := range c.peerAddrs() {
		p := c.peers[addr]
		if p.state != PeerAlive || p.load >= avg {
			continue
		}
		score := abs(excess - (avg - p.load))
		if score < bestScore {
			bestScore = score
			best = p
		}
	}
	if best == nil {
		return
	}
	if c.selectProcess(excess) == nil {
		return // nothing suitable to move
	}
	c.propose(best.addr)
}

// propose sends a transfer proposal. The wire message carries the
// rebalance-decision span's TraceContext (zeros when unobserved), so
// the receiver's reservation span — and, transitively, the whole
// migration that may follow — parents into this decision.
func (c *Conductor) propose(to netsim.Addr) {
	c.nextSeq++
	c.state = stateSending
	c.reserveSeq = c.nextSeq
	c.reserveAt = c.now()
	ctx := c.rebalanceStart(to)
	msg := make([]byte, 29)
	msg[0] = opPropose
	binary.BigEndian.PutUint32(msg[1:], c.nextSeq)
	binary.BigEndian.PutUint64(msg[5:], uint64(c.load*1e6))
	binary.BigEndian.PutUint64(msg[13:], ctx.Trace)
	binary.BigEndian.PutUint64(msg[21:], ctx.Span)
	c.send(to, msg)
	// Proposal timeout. The extLocked guard keeps a stale timeout from
	// clearing a slot the control plane has since acquired (the seq is
	// not advanced by TryAcquireMigration).
	seq := c.nextSeq
	c.Node.Sched.After(3*c.Config.Period, "cond.propose-timeout", func() {
		if c.state == stateSending && c.reserveSeq == seq && !c.extLocked {
			c.state = stateIdle
			c.rebalanceEnd("timeout")
		}
	})
}

// TryAcquireMigration claims the conductor's one-migration-at-a-time
// slot for an external driver (the control plane's node agent). While
// held, the conductor makes no balancing proposals and rejects inbound
// ones — exactly as if its own migration were in flight. Returns false
// when the slot is busy (a conductor-initiated transfer or reservation
// is active, or another external driver holds it).
func (c *Conductor) TryAcquireMigration() bool {
	if c.state != stateIdle {
		return false
	}
	c.state = stateSending
	c.extLocked = true
	return true
}

// ReleaseMigration frees the slot claimed by TryAcquireMigration. It
// must be called synchronously from the migration's done callback —
// including the early-abort path that never reached Freeze — so the
// conductor can balance again the same instant, not at its next tick.
// Releasing a slot not externally held is a no-op.
func (c *Conductor) ReleaseMigration() {
	if !c.extLocked {
		return
	}
	c.extLocked = false
	if c.state == stateSending {
		c.state = stateIdle
	}
}

// MigrationSlotFree reports whether the migration slot is idle (tests
// and the agent's admission check).
func (c *Conductor) MigrationSlotFree() bool { return c.state == stateIdle }

// selectProcess applies the selection policy of §IV-C: the process whose
// CPU consumption is closest to the local excess over the cluster
// average.
func (c *Conductor) selectProcess(excess float64) *proc.Process {
	desired := excess * c.Node.Cores
	var best *proc.Process
	bestScore := 1e18
	for _, p := range c.Node.Processes() {
		if p.State != proc.ProcRunning || p.CPUDemand <= 0 {
			continue
		}
		score := abs(p.CPUDemand - desired)
		if score < bestScore {
			bestScore = score
			best = p
		}
	}
	return best
}

func (c *Conductor) serve() {
	for {
		dg, ok := c.sock.Recv()
		if !ok {
			return
		}
		if len(dg.Payload) == 0 {
			continue
		}
		from := dg.SrcIP
		switch dg.Payload[0] {
		case opDiscover:
			c.notePeer(from, -1)
			c.send(from, loadMsg(opDiscoverReply, c.load))
		case opDiscoverReply, opHeartbeat:
			r := wire.NewReader(dg.Payload[1:])
			if load := r.U64(); r.Err() == nil {
				c.notePeer(from, float64(load)/1e6)
			}
		case opPropose:
			c.handlePropose(from, dg.Payload)
		case opAccept:
			c.handleAccept(from, dg.Payload)
		case opReject:
			if c.state == stateSending {
				c.state = stateIdle
				c.Events = append(c.Events, Event{At: c.now(), Kind: "reject", Peer: from})
				c.rebalanceEnd("rejected")
			}
		case opDone:
			// Sender finished delivering into us; calm down.
			if c.state == stateReceiving {
				c.state = stateIdle
				c.calmUntil = c.now() + c.Config.CalmDown
				c.reserveEnd("done")
			}
		case opRelease:
			if c.state == stateReceiving {
				c.state = stateIdle
				c.reserveEnd("released")
			}
		case opOwner:
			if name, ep, seq, err := decodeOwnerMsg(dg.Payload); err == nil {
				c.handleOwner(from, name, ep, seq)
			}
		case opClaim:
			if name, ep, seq, err := decodeOwnerMsg(dg.Payload); err == nil {
				c.handleClaim(from, name, ep, seq)
			}
		}
	}
}

func (c *Conductor) notePeer(addr netsim.Addr, load float64) {
	p := c.peers[addr]
	if p == nil {
		p = &peerInfo{addr: addr}
		c.peers[addr] = p
		i, _ := slices.BinarySearch(c.peerOrder, addr)
		c.peerOrder = slices.Insert(slices.Clone(c.peerOrder), i, addr)
	}
	if load >= 0 {
		p.load = load
	}
	p.lastSeen = c.now()
	if p.state != PeerAlive {
		// Revival: the detector trusts the peer again (a flap, or a
		// partition healing). Failover decisions taken in between stand;
		// epochs sort out who serves.
		if p.state == PeerDead {
			c.Events = append(c.Events, Event{At: c.now(), Kind: "revived", Peer: addr})
			c.detectorFlip("revived", addr)
		}
		p.state = PeerAlive
	}
	if n := len(c.peers); n > c.maxPeersSeen {
		c.maxPeersSeen = n
	}
}

// handlePropose runs the receiver side of the transfer policy: accept at
// most one migration at a time (two-phase commit, §IV-A), reject while
// calming down or already migrating.
func (c *Conductor) handlePropose(from netsim.Addr, payload []byte) {
	r := wire.NewReader(payload[1:])
	seq := r.U32()
	r.Skip(8) // the sender's load, which the heartbeats already carry
	ctx := obs.TraceContext{Trace: r.U64(), Span: r.U64()}
	if r.Err() != nil {
		return
	}
	if c.state != stateIdle || c.now() < c.calmUntil {
		c.send(from, seqMsg(opReject, seq))
		return
	}
	c.state = stateReceiving
	c.reserveAt = c.now()
	c.reserveStart(from, ctx)
	c.send(from, seqMsg(opAccept, seq))
}

func (c *Conductor) handleAccept(from netsim.Addr, payload []byte) {
	r := wire.NewReader(payload[1:])
	if seq := r.U32(); r.Err() != nil || c.state != stateSending || seq != c.reserveSeq {
		return
	}
	avg := c.ClusterAverage()
	p := c.selectProcess(c.load - avg)
	if p == nil {
		c.send(from, seqMsg(opRelease, c.reserveSeq))
		c.state = stateIdle
		c.rebalanceEnd("released")
		return
	}
	pid := p.PID
	// The migration parents into the rebalance-decision span: the whole
	// end-to-end trace — source phases, destination restore — hangs off
	// the conductor decision that caused it.
	c.balSpan.SetInt("pid", int64(pid))
	c.Mig.MigrateTraced(p, from, c.balSpan.Context(), func(m *migration.Metrics, err error) {
		if err != nil {
			// Aborted migration: the process rolled back here, nothing
			// arrived at the peer. Release the peer's reservation
			// (opRelease clears it without the post-receive calm-down)
			// and calm down locally so a flapping destination is not
			// immediately re-proposed to.
			c.Events = append(c.Events, Event{At: c.now(), Kind: "abort", Peer: from, PID: pid, Load: c.load, Err: err.Error()})
			c.send(from, seqMsg(opRelease, c.reserveSeq))
			c.state = stateIdle
			c.calmUntil = c.now() + c.Config.CalmDown
			c.rebalanceEnd("aborted")
			return
		}
		c.Migrations++
		c.Events = append(c.Events, Event{At: c.now(), Kind: "migrate-out", Peer: from, PID: pid, Load: c.load})
		c.send(from, seqMsg(opDone, c.reserveSeq))
		c.state = stateIdle
		c.calmUntil = c.now() + c.Config.CalmDown
		c.rebalanceEnd("done")
	})
}

// Drain gracefully evacuates the node ("machines may join and leave at
// any time", §IV): every running process is migrated to the live peer
// with the lowest known load, one after another, and done fires with the
// number of processes moved and the first error if any. The conductor
// stops making its own balancing decisions while draining.
func (c *Conductor) Drain(done func(moved int, err error)) {
	c.state = stateSending // block the balancing loop
	moved := 0
	var step func()
	step = func() {
		procs := c.Node.Processes()
		var victim *proc.Process
		for _, p := range procs {
			if p.State == proc.ProcRunning {
				victim = p
				break
			}
		}
		if victim == nil {
			c.state = stateIdle
			if done != nil {
				done(moved, nil)
			}
			return
		}
		var best *peerInfo
		for _, addr := range c.peerAddrs() {
			p := c.peers[addr]
			if p.state != PeerAlive {
				continue
			}
			if best == nil || p.load < best.load {
				best = p
			}
		}
		if best == nil {
			c.state = stateIdle
			if done != nil {
				done(moved, fmt.Errorf("cond: no peers to drain to"))
			}
			return
		}
		pid := victim.PID
		c.Mig.Migrate(victim, best.addr, func(m *migration.Metrics, err error) {
			if err != nil {
				c.state = stateIdle
				if done != nil {
					done(moved, err)
				}
				return
			}
			moved++
			c.Events = append(c.Events, Event{At: c.now(), Kind: "drain", Peer: best.addr, PID: pid})
			step()
		})
	}
	step()
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
