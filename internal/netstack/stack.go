package netstack

import (
	"fmt"

	"dvemig/internal/flight"
	"dvemig/internal/netsim"
	"dvemig/internal/simtime"
)

// FourTuple identifies an established TCP connection in the ehash table.
type FourTuple struct {
	LocalIP    netsim.Addr
	RemoteIP   netsim.Addr
	LocalPort  uint16
	RemotePort uint16
}

// Stats counts stack-level events; tests and experiments read them.
type Stats struct {
	Delivered      uint64 // packets demuxed to a socket
	NoSocketDrops  uint64 // broadcast copies for connections owned elsewhere
	Reinjected     uint64 // packets resubmitted through the okfn
	ChecksumErrors uint64

	// Aggregated TCP socket events; the per-socket counters remain on
	// TCPSocket, these accumulate across all sockets (including ones
	// that have since closed or migrated away) so the observability
	// plane can harvest them after the fact.
	Retransmits     uint64 // timer-driven resends
	FastRetransmits uint64 // triple-dup-ack recoveries
	RTOResets       uint64 // retransmission timers restarted after restore
	TSFixups        uint64 // timestamp-offset rewrites applied at restore
}

// Stack is one node's network stack.
type Stack struct {
	Name  string
	sched *simtime.Scheduler

	// BootJiffies is the node's jiffies counter value at simulation time
	// zero. Nodes boot at different times, so counters differ — the reason
	// TCP timestamps must be adjusted during migration (paper §V-C1).
	BootJiffies uint32

	nics       []*netsim.NIC
	routes     []route
	localAddrs []netsim.Addr // one per NIC: two on a server node

	dstCache map[netsim.Addr]*netsim.DstEntry

	// The two netfilter slots (hooks.go); nil when empty.
	capturer Capturer
	rewriter Rewriter

	// The kernel lookup tables the paper names: ehash for established
	// connections, bhash for bound/listening ports, and the UDP hash
	// (table.go).
	ehash ehashTable
	bhash portTable[TCPSocket]
	udph  portTable[UDPSocket]

	// pool mints every packet this stack's sockets send or restore, and
	// takes each back when it is released anywhere in the cell.
	pool netsim.Pool

	nextEphemeral uint16
	isnCounter    uint32

	// down marks a crashed node: a down stack neither accepts ingress nor
	// emits egress, so a "dead" node cannot keep a migration alive with
	// packets scheduled before the crash. Set by proc.Node.Fail and by the
	// fault plane's crash triggers.
	down bool

	Stats Stats

	// FR, when attached, records the packets the capture slot takes into
	// the flight recorder. Nil by default.
	FR *flight.Recorder
}

type route struct {
	prefix netsim.Addr
	bits   int
	nic    *netsim.NIC
	src    netsim.Addr
}

// NewStack creates a stack bound to the scheduler with a per-node jiffies
// boot offset.
func NewStack(sched *simtime.Scheduler, name string, bootJiffies uint32) *Stack {
	return &Stack{
		Name:        name,
		sched:       sched,
		BootJiffies: bootJiffies,
		dstCache:    make(map[netsim.Addr]*netsim.DstEntry),
		// The ephemeral-port cursor starts at a node-specific point, as
		// it would on machines with distinct histories; without this,
		// identical allocation sequences on every node would make a
		// migrated in-cluster connection collide with the destination's
		// own connection to the same peer on the full four-tuple.
		nextEphemeral: 32768 + uint16((uint64(bootJiffies)*2654435761>>16)%28000),
		isnCounter:    uint32(bootJiffies)*2654435761 + 7,
	}
}

// PoolStats reports the census of the stack's packet free list, for tests
// and diagnostics.
func (s *Stack) PoolStats() netsim.PoolStats { return s.pool.Stats() }

// ReleaseQueues ends the hold of every socket in the stack's tables on
// its queued packets (TCPSocket.ReleaseQueues, UDPSocket.ReleaseQueues),
// walking the tables in place. It is the first half of ending a cell:
// each packet goes back to its home, possibly another stack's pool, so
// every stack of the cell releases before any retires its pool
// (RetirePool). A socket in no table — migrated away, closed — is not
// reached.
func (s *Stack) ReleaseQueues() {
	for _, sk := range s.ehash.buckets {
		for ; sk != nil; sk = sk.ehashNext {
			sk.ReleaseQueues()
		}
	}
	s.bhash.each((*TCPSocket).ReleaseQueues)
	s.udph.each((*UDPSocket).ReleaseQueues)
}

// RetirePool hands the stack's idle packets to the process-wide reserve
// (netsim.Pool.Retire); nothing may run on the stack afterwards.
func (s *Stack) RetirePool() { s.pool.Retire() }

// Scheduler exposes the virtual clock the stack runs on.
func (s *Stack) Scheduler() *simtime.Scheduler { return s.sched }

// SetDown marks the stack dead (true) or alive (false). While down, all
// ingress and egress is silently discarded.
func (s *Stack) SetDown(down bool) { s.down = down }

// Jiffies returns this node's current jiffies counter, the clock TCP
// timestamps are taken from.
func (s *Stack) Jiffies() uint32 { return simtime.Jiffies(s.sched.Now(), s.BootJiffies) }

// AttachNIC registers an interface and the address it owns, and installs
// the stack as the NIC's ingress handler.
func (s *Stack) AttachNIC(nic *netsim.NIC, addr netsim.Addr) {
	s.nics = append(s.nics, nic)
	if !s.isLocal(addr) {
		s.localAddrs = append(s.localAddrs, addr)
	}
	nic.SetHandler(s)
}

func (s *Stack) isLocal(addr netsim.Addr) bool {
	for _, a := range s.localAddrs {
		if a == addr {
			return true
		}
	}
	return false
}

// AddRoute installs a prefix route: packets to addresses matching the
// first bits of prefix leave through nic with source address src.
func (s *Stack) AddRoute(prefix netsim.Addr, bits int, nic *netsim.NIC, src netsim.Addr) {
	s.routes = append(s.routes, route{prefix: prefix, bits: bits, nic: nic, src: src})
}

func (s *Stack) routeFor(dst netsim.Addr) (route, bool) {
	best := -1
	var found route
	for _, r := range s.routes {
		mask := netsim.Addr(0)
		if r.bits > 0 {
			mask = netsim.Addr(^uint32(0) << (32 - r.bits))
		}
		if dst&mask == r.prefix&mask && r.bits > best {
			best = r.bits
			found = r
		}
	}
	return found, best >= 0
}

// SourceAddrFor returns the local address the stack would use to reach
// dst; sockets call it when connecting.
func (s *Stack) SourceAddrFor(dst netsim.Addr) (netsim.Addr, error) {
	r, ok := s.routeFor(dst)
	if !ok {
		return 0, fmt.Errorf("netstack %s: no route to %s", s.Name, dst)
	}
	return r.src, nil
}

// DstFor returns the (cached) destination entry for addr, modelling the
// Linux IP destination cache. Sockets hold on to the entry and stamp it
// onto every outgoing packet; the output path forwards by the entry, not
// by the header address — the exact behaviour that bites local address
// translation in §V-D.
func (s *Stack) DstFor(addr netsim.Addr) (*netsim.DstEntry, error) {
	if e, ok := s.dstCache[addr]; ok {
		return e, nil
	}
	r, ok := s.routeFor(addr)
	if !ok {
		return nil, fmt.Errorf("netstack %s: no route to %s", s.Name, addr)
	}
	e := &netsim.DstEntry{NextHop: addr, Iface: r.nic.Name}
	s.dstCache[addr] = e
	return e, nil
}

// InvalidateDst drops the cached entry for addr.
func (s *Stack) InvalidateDst(addr netsim.Addr) { delete(s.dstCache, addr) }

// MakeDst builds a fresh destination entry for addr without touching the
// shared cache; the translation filter uses it to replace the entry
// inherited from the peer socket.
func (s *Stack) MakeDst(addr netsim.Addr) (*netsim.DstEntry, error) {
	r, ok := s.routeFor(addr)
	if !ok {
		return nil, fmt.Errorf("netstack %s: no route to %s", s.Name, addr)
	}
	return &netsim.DstEntry{NextHop: addr, Iface: r.nic.Name}, nil
}

// DeliverPacket is the ip_rcv path — the stack is its NICs' ingress
// handler: local-address check, then NF_INET_LOCAL_IN — the translation
// slot rewrites the packet, the capture slot may take it — then transport
// demux. Translation comes first because Reinject skips both slots: a
// captured packet must already name its peer the way the socket does.
func (s *Stack) DeliverPacket(p *netsim.Packet) {
	if s.down {
		p.Release()
		return
	}
	if !s.isLocal(p.DstIP) {
		// Not ours and we do not forward; broadcast copies for other
		// nodes' flows die here too when the address differs.
		s.Stats.NoSocketDrops++
		p.Release()
		return
	}
	if s.rewriter != nil {
		s.rewriter.In(p)
	}
	if s.capturer != nil && s.capturer.Capture(p) {
		if s.FR != nil {
			s.FR.Record(int64(s.sched.Now()), "hook-steal", "local-in",
				int64(uint64(p.SrcIP)<<32|uint64(p.SrcPort)),
				int64(uint64(p.DstIP)<<32|uint64(p.DstPort)), int64(p.Seq))
		}
		return // the capturer's now: it reinjects or releases
	}
	s.demux(p)
}

// Reinject is the okfn (ip_rcv_finish): it resubmits a stolen packet to
// local delivery, bypassing both LOCAL_IN slots so a capture filter does
// not steal its own reinjection.
func (s *Stack) Reinject(p *netsim.Packet) {
	s.Stats.Reinjected++
	s.demux(p)
}

func (s *Stack) demux(p *netsim.Packet) {
	switch p.Proto {
	case netsim.ProtoTCP:
		if sk := s.ehash.get(makeEhashKey(p.DstIP, p.SrcIP, p.DstPort, p.SrcPort)); sk != nil {
			s.Stats.Delivered++
			sk.input(p)
			return
		}
		if lk := s.bhash.get(p.DstPort); lk != nil && lk.State == TCPListen {
			s.Stats.Delivered++
			lk.listenInput(p)
			return
		}
		// Silent drop: on the broadcast cluster every node sees every
		// client packet; only the connection owner may answer (no RST).
		s.Stats.NoSocketDrops++
		p.Release()
	case netsim.ProtoUDP:
		if us := s.udph.get(p.DstPort); us != nil {
			s.Stats.Delivered++
			us.input(p)
			return
		}
		s.Stats.NoSocketDrops++
		p.Release()
	default:
		s.Stats.NoSocketDrops++
		p.Release()
	}
}

// TransmitRaw pushes a fully formed packet through the output path (raw
// socket equivalent): the translation slot rewrites it, then the packet
// leaves through the interface chosen by its destination entry.
func (s *Stack) TransmitRaw(p *netsim.Packet) { s.transmit(p) }

// transmit runs the LOCAL_OUT translation slot and sends the packet out
// the interface selected by its destination cache entry.
func (s *Stack) transmit(p *netsim.Packet) {
	if s.down {
		p.Release()
		return
	}
	if p.Dst == nil {
		e, err := s.DstFor(p.DstIP)
		if err != nil {
			p.Release() // unroutable; counted implicitly by peers timing out
			return
		}
		p.Dst = e
	}
	if s.rewriter != nil {
		s.rewriter.Out(p)
	}
	nic := s.nicByName(p.Dst.Iface)
	if nic == nil {
		p.Release()
		return
	}
	nic.Send(p)
}

func (s *Stack) nicByName(name string) *netsim.NIC {
	for _, n := range s.nics {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// allocEphemeral returns a free local port for outgoing connections.
func (s *Stack) allocEphemeral() uint16 {
	for i := 0; i < 65536; i++ {
		p := s.nextEphemeral
		s.nextEphemeral++
		if s.nextEphemeral < 32768 {
			s.nextEphemeral = 32768
		}
		if s.bhash.get(p) == nil && s.udph.get(p) == nil {
			return p
		}
	}
	panic("netstack: ephemeral ports exhausted")
}

func (s *Stack) nextISN() uint32 {
	s.isnCounter = s.isnCounter*1664525 + 1013904223
	return s.isnCounter
}

// EstablishedSockets returns the established TCP sockets, in no
// particular order; the migration engine iterates the FD table instead,
// this accessor exists for tests and monitoring.
func (s *Stack) EstablishedSockets() []*TCPSocket {
	return s.ehash.appendAll(make([]*TCPSocket, 0, s.ehash.len()))
}

// LookupEstablished finds a socket in the ehash table.
func (s *Stack) LookupEstablished(t FourTuple) *TCPSocket { return s.ehash.get(t.key()) }

// LookupBound finds a listening socket in the bhash table.
func (s *Stack) LookupBound(port uint16) *TCPSocket { return s.bhash.get(port) }
