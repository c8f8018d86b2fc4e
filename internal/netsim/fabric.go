package netsim

import (
	"fmt"

	"dvemig/internal/simtime"
)

// Handler consumes packets delivered to a NIC.
type Handler interface {
	DeliverPacket(p *Packet)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(p *Packet)

// DeliverPacket calls the function.
func (f HandlerFunc) DeliverPacket(p *Packet) { f(p) }

// LinkParams describe a link's performance: Bandwidth in bits per second
// and one-way propagation Latency. The paper's testbed is Gigabit
// Ethernet on both the public and the in-cluster network; what a link
// loses, duplicates or delays is its FaultModel's business.
type LinkParams struct {
	Bandwidth float64 // bits per second
	Latency   simtime.Duration
}

// GigabitEthernet matches the evaluation testbed (§VI-A).
var GigabitEthernet = LinkParams{Bandwidth: 1e9, Latency: 50 * 1e3} // 50µs

// FaultAction is the fault plane's decision for one packet traversal.
// The zero value means "deliver normally".
type FaultAction struct {
	// Drop discards the packet (burst loss, dead link, partition).
	Drop bool
	// ExtraDelay is added to the propagation latency (jitter, or a large
	// hold that reorders the packet behind its successors).
	ExtraDelay simtime.Duration
	// Duplicate delivers a second copy of the packet, DupDelay after the
	// original's arrival time.
	Duplicate bool
	DupDelay  simtime.Duration
}

// FaultModel is a per-link fault program, the one way a link misbehaves:
// the NIC consults it once per egress packet (dir "tx", where
// loss/duplication/reordering/jitter apply) and once per ingress packet
// (dir "rx", where link-down windows block delivery). netsim only
// defines the contract; deterministic implementations live in
// internal/faults so links stay dependency-free.
type FaultModel interface {
	Apply(now simtime.Time, dir string, p *Packet) FaultAction
}

// TransferTime returns serialization delay for n bytes on the link.
func (lp LinkParams) TransferTime(n int) simtime.Duration {
	if lp.Bandwidth <= 0 {
		return 0
	}
	bits := float64(n) * 8
	return simtime.Duration(bits / lp.Bandwidth * 1e9)
}

// NIC is a network interface: an address on a segment plus egress
// serialization state. Ingress is pushed to the Handler by the segment.
type NIC struct {
	Name    string
	Addr    Addr
	Params  LinkParams
	handler Handler
	seg     segment
	sched   *simtime.Scheduler

	busyUntil simtime.Time // egress serialization horizon
	// deliveries queues Send's delivery events. done never decreases (it
	// advances busyUntil), so at a fixed Latency they arrive in time
	// order; whatever breaks the order (a fault's extra delay, a changed
	// Latency) sends the earlier-arriving packets behind it through the
	// heap instead (simtime.Lane).
	deliveries simtime.Lane
	taps       []Tap
	fault      FaultModel

	// Counters for diagnostics and tests.
	TxPackets, RxPackets uint64
	TxBytes, RxBytes     uint64
	// Fault-plane counters: packets the installed FaultModel dropped,
	// duplicated, or delayed on this NIC.
	FaultDropped    uint64
	FaultDuplicated uint64
	FaultDelayed    uint64

	// Page-pull class accounting (Packet.Class == ClassPagePull): the
	// post-copy demand-pull/prefetch bytes that crossed this NIC, so the
	// strategy race can attribute degraded-window wire pressure.
	PullTxBytes, PullRxBytes uint64

	// Checkpoint class accounting (Packet.Class == ClassCheckpoint):
	// precopy/freeze transfer bytes on the migd connection, so eval can
	// attribute migration wire pressure separately from the pull phase.
	CkptTxBytes, CkptRxBytes uint64
}

// TapEvent says what happened to a packet at a NIC.
type TapEvent uint8

// The events, each emitted at exactly one point of Send or deliver.
// TapTx and TapRx keep the values 1 and 2: the trace hashes fold the
// event in as a number.
const (
	TapTx        TapEvent = iota + 1 // Send: handed to the wire, before the fault program rules
	TapRx                            // deliver: about to reach the handler
	TapDropFault                     // Send or deliver: the fault program discarded it
	TapDup                           // Send: the fault program scheduled a second copy
)

var tapEventNames = [...]string{TapTx: "tx", TapRx: "rx", TapDropFault: "drop-fault", TapDup: "dup"}

// String is the event's flight-recorder verdict.
func (e TapEvent) String() string { return tapEventNames[e] }

// Tap observes the packet events of the NIC it is attached to: the
// tcpdump of the simulation (Fig 4), the trace hashes, the flight
// recorder. The packet is lent for the call — a tap copies what it
// keeps and changes nothing. Taps run in attach order and know nothing
// of each other.
type Tap interface {
	PacketEvent(at simtime.Time, ev TapEvent, p *Packet)
}

// SetHandler installs the ingress consumer (the node's network stack).
func (n *NIC) SetHandler(h Handler) { n.handler = h }

// AttachTap adds a tap behind the ones already attached.
func (n *NIC) AttachTap(t Tap) { n.taps = append(n.taps, t) }

// DetachTap removes a tap; the others keep their order.
func (n *NIC) DetachTap(t Tap) {
	for i, have := range n.taps {
		if have == t {
			n.taps = append(n.taps[:i], n.taps[i+1:]...)
			return
		}
	}
}

// emit hands one event to every tap. With nothing attached — the
// benchmarked configuration — it is the loop's one length check.
func (n *NIC) emit(at simtime.Time, ev TapEvent, p *Packet) {
	for _, t := range n.taps {
		t.PacketEvent(at, ev, p)
	}
}

// SetFault installs (or, with nil, removes) the link's fault program.
func (n *NIC) SetFault(fm FaultModel) { n.fault = fm }

// Fault returns the installed fault program, nil if none.
func (n *NIC) Fault() FaultModel { return n.fault }

// Send transmits the packet on the NIC's segment. Transmission is
// serialized: back-to-back sends queue behind each other at line rate,
// which is what makes the iterative socket-migration strategy pay a
// per-message penalty while collective transfers stream at full bandwidth.
func (n *NIC) Send(p *Packet) {
	if n.seg == nil {
		panic(fmt.Sprintf("netsim: NIC %s not attached to a segment", n.Name))
	}
	now := n.sched.Now()
	start := now
	if n.busyUntil > start {
		start = n.busyUntil
	}
	done := start + n.Params.TransferTime(p.Len())
	n.busyUntil = done
	n.TxPackets++
	n.TxBytes += uint64(p.Len())
	switch p.Class {
	case ClassPagePull:
		n.PullTxBytes += uint64(p.Len())
	case ClassCheckpoint:
		n.CkptTxBytes += uint64(p.Len())
	}
	n.emit(now, TapTx, p)
	extra := simtime.Duration(0)
	if n.fault != nil {
		act := n.fault.Apply(now, "tx", p)
		if act.Drop {
			n.FaultDropped++
			n.emit(now, TapDropFault, p)
			p.Release() // swallowed by the wire
			return
		}
		if act.ExtraDelay > 0 {
			n.FaultDelayed++
			extra = act.ExtraDelay
		}
		if act.Duplicate {
			n.FaultDuplicated++
			n.emit(now, TapDup, p)
			dup := p.Clone()
			n.sched.AtCallLane(nil, done+n.Params.Latency+extra+act.DupDelay, "netsim.deliver-dup", routeCall, n, dup)
		}
	}
	arrive := done + n.Params.Latency + extra
	n.sched.AtCallLane(&n.deliveries, arrive, "netsim.deliver", routeCall, n, p)
}

// routeCall is the closure-free delivery trampoline: the NIC and packet
// ride in the pooled event's argument slots, so the per-packet schedule
// in Send allocates nothing.
func routeCall(a0, a1 any) {
	n := a0.(*NIC)
	p := a1.(*Packet)
	n.seg.route(n, p)
}

func (n *NIC) deliver(p *Packet) {
	now := n.sched.Now()
	if n.fault != nil {
		if act := n.fault.Apply(now, "rx", p); act.Drop {
			n.FaultDropped++
			n.emit(now, TapDropFault, p)
			p.Release()
			return
		}
	}
	n.RxPackets++
	n.RxBytes += uint64(p.Len())
	switch p.Class {
	case ClassPagePull:
		n.PullRxBytes += uint64(p.Len())
	case ClassCheckpoint:
		n.CkptRxBytes += uint64(p.Len())
	}
	n.emit(now, TapRx, p)
	if n.handler != nil {
		n.handler.DeliverPacket(p)
	}
}

// segment is a physical medium packets traverse.
type segment interface {
	route(from *NIC, p *Packet)
}

// Switch is the in-cluster network: a learning switch that delivers each
// packet to the NIC owning the destination address.
type Switch struct {
	sched *simtime.Scheduler
	ports map[Addr]*NIC
	// Dropped counts packets to unknown addresses (e.g. sent to a node
	// that left the cluster), visible to fault-tolerance tests.
	Dropped uint64
}

// NewSwitch creates an empty in-cluster switch.
func NewSwitch(s *simtime.Scheduler) *Switch {
	return &Switch{sched: s, ports: make(map[Addr]*NIC)}
}

// Attach creates a NIC with the given address and connects it.
func (sw *Switch) Attach(name string, addr Addr, params LinkParams) *NIC {
	if _, dup := sw.ports[addr]; dup {
		panic(fmt.Sprintf("netsim: duplicate switch address %s", addr))
	}
	n := &NIC{Name: name, Addr: addr, Params: params, seg: sw, sched: sw.sched}
	sw.ports[addr] = n
	return n
}

// Detach removes the NIC from the switch (node leaves the cluster).
func (sw *Switch) Detach(n *NIC) { delete(sw.ports, n.Addr) }

func (sw *Switch) route(from *NIC, p *Packet) {
	dst, ok := sw.ports[p.DstIP]
	if !ok {
		sw.Dropped++
		p.Release()
		return
	}
	dst.deliver(p)
}

// BroadcastRouter is the single-IP-address router (§II-A): every packet
// arriving from the public side whose destination is the cluster address
// is *broadcast* to all server-node public NICs; each node's stack then
// decides (by port ownership) whether to process or silently drop it.
// Packets from server nodes to external addresses are routed out to the
// matching client NIC. The broadcast property is what lets sockets migrate
// inside the cluster with no router reconfiguration, and what the capture
// module exploits to prevent incoming packet loss.
type BroadcastRouter struct {
	sched      *simtime.Scheduler
	ClusterIP  Addr
	servers    []*NIC
	external   map[Addr]*NIC
	Broadcasts uint64
	Dropped    uint64
}

// NewBroadcastRouter creates a router fronting the given cluster IP.
func NewBroadcastRouter(s *simtime.Scheduler, clusterIP Addr) *BroadcastRouter {
	return &BroadcastRouter{sched: s, ClusterIP: clusterIP, external: make(map[Addr]*NIC)}
}

// AttachServer connects a server node's public interface. All server
// public NICs share the cluster IP, so the NIC is identified by name only.
func (r *BroadcastRouter) AttachServer(name string, params LinkParams) *NIC {
	n := &NIC{Name: name, Addr: r.ClusterIP, Params: params, seg: r, sched: r.sched}
	r.servers = append(r.servers, n)
	return n
}

// DetachServer disconnects a server NIC (node leaves).
func (r *BroadcastRouter) DetachServer(n *NIC) {
	for i, s := range r.servers {
		if s == n {
			r.servers = append(r.servers[:i], r.servers[i+1:]...)
			return
		}
	}
}

// AttachExternal connects a client machine on the WAN side.
func (r *BroadcastRouter) AttachExternal(name string, addr Addr, params LinkParams) *NIC {
	if addr == r.ClusterIP {
		panic("netsim: external host cannot use the cluster IP")
	}
	if _, dup := r.external[addr]; dup {
		panic(fmt.Sprintf("netsim: duplicate external address %s", addr))
	}
	n := &NIC{Name: name, Addr: addr, Params: params, seg: r, sched: r.sched}
	r.external[addr] = n
	return n
}

func (r *BroadcastRouter) route(from *NIC, p *Packet) {
	if p.DstIP == r.ClusterIP {
		// Broadcast to every server node. Each node owns the packet it is
		// handed — its netfilter hooks rewrite the header in place — so
		// every node but the last gets a clone (private header, shared
		// payload) and the last takes over the original.
		r.Broadcasts++
		var last *NIC
		for _, srv := range r.servers {
			if srv == from {
				continue
			}
			if last != nil {
				last.deliver(p.Clone())
			}
			last = srv
		}
		if last == nil {
			p.Release() // nobody to hand it to
			return
		}
		last.deliver(p)
		return
	}
	if dst, ok := r.external[p.DstIP]; ok {
		dst.deliver(p)
		return
	}
	r.Dropped++
	p.Release()
}

// ServerCount reports how many server NICs are attached (used by tests
// and by the discovery protocol's expectations).
func (r *BroadcastRouter) ServerCount() int { return len(r.servers) }
