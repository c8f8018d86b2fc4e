package proc

import (
	"cmp"
	"fmt"
	"slices"

	"dvemig/internal/flight"
	"dvemig/internal/netsim"
	"dvemig/internal/netstack"
	"dvemig/internal/simtime"
)

// Node is one DVE server machine: a network stack on both the public
// (broadcast) and local (in-cluster) networks, a process table and CPU
// accounting. The testbed nodes are dual-core Opterons (§VI-A); CPU
// utilisation is reported as a percentage of the whole machine like atop.
type Node struct {
	Name    string
	Sched   *simtime.Scheduler
	Stack   *netstack.Stack
	LocalIP netsim.Addr

	PublicNIC, LocalNIC *netsim.NIC

	// Cores is the machine's CPU capacity in core-equivalents.
	Cores float64

	Alive bool

	// FR, when attached, is this node's flight recorder: migration phase
	// transitions, failure-detector flips and conductor decisions record
	// into it. AttachFlight wires it (plus the stack and NIC recorders).
	FR    *flight.Recorder
	nicFR [2]*nicFlight // the public and the local NIC's taps, to detach

	processes []*Process // PID order, so every walk is deterministic
	nextPID   int
	tickers   map[int]*simtime.Ticker
}

func newNode(name string, sched *simtime.Scheduler, bootJiffies uint32) *Node {
	return &Node{
		Name:    name,
		Sched:   sched,
		Stack:   netstack.NewStack(sched, name, bootJiffies),
		Cores:   2,
		Alive:   true,
		tickers: make(map[int]*simtime.Ticker),
		nextPID: 100,
	}
}

// AttachFlight wires a flight-recorder set into the node: one recorder
// for node-level events (n.FR), one for the stack's packet verdicts, and
// one per NIC, attached as a packet tap, for wire-level verdicts.
// Passing nil detaches them all.
func (n *Node) AttachFlight(set *flight.Set) {
	nics := [...]*netsim.NIC{n.PublicNIC, n.LocalNIC}
	tracks := [...]string{"/nic-pub", "/nic-local"}
	for i, nic := range nics {
		if n.nicFR[i] != nil {
			nic.DetachTap(n.nicFR[i])
			n.nicFR[i] = nil
		}
	}
	if set == nil {
		n.FR, n.Stack.FR = nil, nil
		return
	}
	n.FR = set.Track(n.Name)
	n.Stack.FR = set.Track(n.Name + "/stack")
	for i, nic := range nics {
		if nic != nil {
			n.nicFR[i] = (*nicFlight)(set.Track(n.Name + tracks[i]))
			nic.AttachTap(n.nicFR[i])
		}
	}
}

// nicFlight is a NIC's flight-recorder track seen as a packet tap: every
// packet event becomes one "pkt" record named by the event's verdict
// (tx, rx, drop-fault, dup), with the endpoints and the sequence number
// as payload. It is the recorder itself under another method set, so
// attaching one allocates nothing.
type nicFlight flight.Recorder

func (f *nicFlight) PacketEvent(at simtime.Time, ev netsim.TapEvent, p *netsim.Packet) {
	(*flight.Recorder)(f).Record(int64(at), "pkt", ev.String(),
		frPkt(p.SrcIP, p.SrcPort), frPkt(p.DstIP, p.DstPort), int64(p.Seq))
}

// frPkt packs one endpoint of a packet into a flight-recorder payload:
// the address in the upper 32 bits, the port in the lower 16.
func frPkt(ip netsim.Addr, port uint16) int64 {
	return int64(uint64(ip)<<32 | uint64(port))
}

// Spawn creates a process with the given number of threads and a fresh
// address space and FD table.
func (n *Node) Spawn(name string, threads int) *Process {
	n.nextPID++
	p := &Process{
		PID:         n.nextPID,
		Name:        name,
		Node:        n,
		State:       ProcRunning,
		AS:          NewAddressSpace(),
		FDs:         NewFDTable(),
		SigHandlers: make(map[Signal]func(*Process, *Thread)),
	}
	if threads < 1 {
		threads = 1
	}
	for i := 0; i < threads; i++ {
		p.NewThread()
	}
	n.insertProcess(p)
	return p
}

// Arrive builds a restored process around its address space and enters
// it into the table once, under pid when free (BLCR restores the
// original PID) and the next PID otherwise. It numbers as a Spawn of the
// bootstrap process followed by Adopt would: one PID is consumed as
// Spawn's, and the threads — zeroed, their TIDs and registers the
// caller's to fill — leave nextTID one past their count.
func (n *Node) Arrive(name string, pid int, as *AddressSpace, threads int) *Process {
	n.nextPID++
	p := &Process{
		PID:         pid,
		Name:        name,
		State:       ProcRunning,
		Threads:     make([]*Thread, threads),
		AS:          as,
		FDs:         NewFDTable(),
		SigHandlers: make(map[Signal]func(*Process, *Thread)),
		nextTID:     threads + 1,
	}
	ths := make([]Thread, threads)
	for i := range ths {
		p.Threads[i] = &ths[i]
	}
	n.Adopt(p)
	return p
}

// Adopt re-homes a migrated process onto this node, preserving its PID
// when free (BLCR restores the original PID).
func (n *Node) Adopt(p *Process) {
	if _, taken := n.processIndex(p.PID); taken {
		n.nextPID++
		p.PID = n.nextPID
	}
	p.Node = n
	n.insertProcess(p)
	if p.PID > n.nextPID {
		n.nextPID = p.PID
	}
}

// processIndex finds pid's slot in the PID-ordered process table.
func (n *Node) processIndex(pid int) (int, bool) {
	return slices.BinarySearchFunc(n.processes, pid, func(p *Process, pid int) int { return cmp.Compare(p.PID, pid) })
}

// insertProcess and removeProcess are the table's only writers, and both
// build a new table beside the old one: Processes hands the live table
// out, so a writer that shifted it in place would move entries under a
// caller's range (an Exit or Detach from inside the loop body).
func (n *Node) insertProcess(p *Process) {
	i, _ := n.processIndex(p.PID)
	next := make([]*Process, 0, len(n.processes)+1)
	n.processes = append(append(append(next, n.processes[:i]...), p), n.processes[i:]...)
}

func (n *Node) removeProcess(p *Process) {
	if i, ok := n.processIndex(p.PID); ok {
		next := make([]*Process, 0, len(n.processes)-1)
		n.processes = append(append(next, n.processes[:i]...), n.processes[i+1:]...)
	}
	if tk := n.tickers[p.PID]; tk != nil {
		tk.Stop()
		delete(n.tickers, p.PID)
	}
}

// Detach removes the process from the node without exiting it (source
// side of a completed migration).
func (n *Node) Detach(p *Process) { n.removeProcess(p) }

// Processes lists processes in PID order. The slice is the node's own
// table, lent read-only (the AddressSpace.VMAs contract): callers must
// not modify it. It is a snapshot — a process that spawns, arrives, exits
// or detaches afterwards changes the node's table, not this slice.
func (n *Node) Processes() []*Process { return n.processes }

// NumProcesses returns the process count.
func (n *Node) NumProcesses() int { return len(n.processes) }

// StartLoop arms the process's real-time loop at the given period. The
// loop silently skips while the process is frozen (the freeze phase of a
// migration) or stalled on a demand page fault (post-copy), and is
// re-armed on the destination node after migration.
func (n *Node) StartLoop(p *Process, period simtime.Duration) {
	p.LoopPeriod = period
	if tk := n.tickers[p.PID]; tk != nil {
		tk.Stop()
	}
	tk := simtime.NewTicker(n.Sched, period, p.Name+".loop", func() {
		if p.State == ProcRunning && !p.Stalled && p.Tick != nil {
			p.Tick(p)
		}
	})
	n.tickers[p.PID] = tk
	tk.Start()
}

// StopLoop disarms the process loop (source side after migration).
func (n *Node) StopLoop(p *Process) {
	if tk := n.tickers[p.PID]; tk != nil {
		tk.Stop()
		delete(n.tickers, p.PID)
	}
}

// Utilization reports machine CPU usage in [0,1]: the summed demand of
// runnable processes against the core count, saturating at 1. The sum
// runs in PID order: float addition is not associative, so any other
// order would make the last bits differ between two runs of one seed.
func (n *Node) Utilization() float64 {
	var demand float64
	for _, p := range n.processes {
		if p.State == ProcRunning {
			demand += p.CPUDemand
		}
	}
	u := demand / n.Cores
	if u > 1 {
		u = 1
	}
	return u
}

// Fail kills the node: processes exit, NICs detach, and the stack is
// marked down so packets already in flight (or events already scheduled
// on the virtual clock) can neither be received nor answered by the dead
// machine. Used by the fault-tolerance extension and the fault plane's
// crash triggers.
func (n *Node) Fail(c *Cluster) {
	n.Alive = false
	n.Stack.SetDown(true)
	for _, p := range n.Processes() {
		p.Exit()
	}
	if n.PublicNIC != nil {
		c.Router.DetachServer(n.PublicNIC)
	}
	if n.LocalNIC != nil {
		c.Switch.Detach(n.LocalNIC)
	}
}

// Cluster is the full single-IP-address testbed: a broadcast router on
// the public side, a switch on the in-cluster side, and the server nodes.
type Cluster struct {
	Sched     *simtime.Scheduler
	ClusterIP netsim.Addr
	Router    *netsim.BroadcastRouter
	Switch    *netsim.Switch
	Nodes     []*Node
	Rand      *simtime.Rand

	nextExternal    byte
	nextLocal       byte
	lastExternalNIC *netsim.NIC
	externals       []*netstack.Stack // NewExternalHost's, in creation order
}

// LocalNet is the in-cluster subnet, a /LocalNetBits: the route every
// node installs, the migrator's "is this peer in the cluster" test and
// the restore-time address rewrite all read the one width.
var LocalNet = netsim.MakeAddr(192, 168, 1, 0)

const LocalNetBits = 24

// NewCluster builds the testbed with n server nodes (the paper uses 5
// DVE servers plus a MySQL machine; the DB node is added separately with
// AddNode so experiments can choose).
func NewCluster(sched *simtime.Scheduler, n int) *Cluster {
	c := &Cluster{
		Sched:     sched,
		ClusterIP: netsim.MakeAddr(203, 0, 113, 10),
		Rand:      simtime.NewRand(2010),
		nextLocal: 1,
	}
	c.Router = netsim.NewBroadcastRouter(sched, c.ClusterIP)
	c.Switch = netsim.NewSwitch(sched)
	for i := 0; i < n; i++ {
		c.AddNode(fmt.Sprintf("node%d", i+1))
	}
	return c
}

// AddNode attaches a new server node to both networks. Jiffies boot
// offsets are deliberately distinct across nodes.
func (c *Cluster) AddNode(name string) *Node {
	idx := c.nextLocal
	c.nextLocal++
	boot := uint32(idx)*1_000_003 + 12345
	n := newNode(name, c.Sched, boot)
	n.LocalIP = netsim.MakeAddr(192, 168, 1, idx)
	n.PublicNIC = c.Router.AttachServer(name+".pub", netsim.GigabitEthernet)
	n.LocalNIC = c.Switch.Attach(name+".lan", n.LocalIP, netsim.GigabitEthernet)
	n.Stack.AttachNIC(n.PublicNIC, c.ClusterIP)
	n.Stack.AttachNIC(n.LocalNIC, n.LocalIP)
	n.Stack.AddRoute(LocalNet, LocalNetBits, n.LocalNIC, n.LocalIP)
	n.Stack.AddRoute(0, 0, n.PublicNIC, c.ClusterIP)
	c.Nodes = append(c.Nodes, n)
	return n
}

// AttachFlight wires a flight-recorder set into the whole cluster: the
// scheduler's track first, then every node's in c.Nodes order (tracks
// dump in creation order, so the order is part of every flight dump).
func (c *Cluster) AttachFlight(set *flight.Set) {
	c.Sched.FR = set.Track("sched")
	for _, n := range c.Nodes {
		n.AttachFlight(set)
	}
}

// RemoveNode detaches the node from the cluster fabric (clean leave).
func (c *Cluster) RemoveNode(n *Node) {
	for i, m := range c.Nodes {
		if m == n {
			c.Nodes = append(c.Nodes[:i], c.Nodes[i+1:]...)
			break
		}
	}
	n.Alive = false
	c.Router.DetachServer(n.PublicNIC)
	c.Switch.Detach(n.LocalNIC)
}

// NodeByLocalIP finds a node by its in-cluster address.
func (c *Cluster) NodeByLocalIP(ip netsim.Addr) *Node {
	for _, n := range c.Nodes {
		if n.LocalIP == ip && n.Alive {
			return n
		}
	}
	return nil
}

// NewExternalHost attaches a client machine on the WAN side of the router
// and returns its stack.
func (c *Cluster) NewExternalHost(name string) *netstack.Stack {
	c.nextExternal++
	addr := netsim.MakeAddr(198, 51, 100, c.nextExternal)
	st := netstack.NewStack(c.Sched, name, uint32(c.nextExternal)*77777)
	nic := c.Router.AttachExternal(name, addr, netsim.GigabitEthernet)
	st.AttachNIC(nic, addr)
	st.AddRoute(0, 0, nic, addr)
	c.lastExternalNIC = nic
	c.externals = append(c.externals, st)
	return st
}

// LastExternalNIC returns the access-link interface of the most recently
// created external host, for attaching measurement taps.
func (c *Cluster) LastExternalNIC() *netsim.NIC { return c.lastExternalNIC }

// Retire ends the cell's packets, in two phases over every node's stack
// and every external host's. First each stack releases what its sockets
// still hold (netstack.Stack.ReleaseQueues), which brings a packet homed
// on one stack but parked on another back home; then each stack's pool
// goes to the process-wide reserve, where the next cell's pools find it.
// It returns what is still out after the release phase — Σ Minted − Idle
// over the stacks: packets in flight, in a capture filter, or in a
// socket no table reaches. No event may run after Retire.
func (c *Cluster) Retire() (packets, payloads int) {
	for _, st := range c.externals {
		st.ReleaseQueues()
	}
	for _, n := range c.Nodes {
		n.Stack.ReleaseQueues()
	}
	retire := func(st *netstack.Stack) {
		ps := st.PoolStats()
		packets += ps.PacketsMinted - ps.PacketsIdle
		payloads += ps.PayloadsMinted - ps.PayloadsIdle
		st.RetirePool()
	}
	for _, st := range c.externals {
		retire(st)
	}
	for _, n := range c.Nodes {
		retire(n.Stack)
	}
	return packets, payloads
}
