package dvemig

import (
	"dvemig/internal/dve"
	"dvemig/internal/lb"
	"dvemig/internal/migration"
	"dvemig/internal/netsim"
	"dvemig/internal/netstack"
	"dvemig/internal/openarena"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
	"dvemig/internal/sockmig"
)

// This file is the public API surface: the types a downstream user needs
// to assemble a simulated single-IP cluster, run processes with live
// network connections, migrate them, and turn on the load-balancing
// middleware. The implementation lives in internal/ packages; everything
// re-exported here is stable.

// Core simulation types.
type (
	// Scheduler is the virtual clock and event loop every simulation
	// runs on.
	Scheduler = simtime.Scheduler
	// Duration and Time are virtual-time spans and instants
	// (time.Duration compatible).
	Duration = simtime.Duration
	// Cluster is the single-IP-address testbed: broadcast router,
	// in-cluster switch, server nodes.
	Cluster = proc.Cluster
	// Node is one server machine.
	Node = proc.Node
	// Process is a simulated OS process with threads, memory and FDs.
	Process = proc.Process
	// Addr is an IPv4 address on the simulated network.
	Addr = netsim.Addr
	// Stack is one machine's network stack (server nodes expose it as
	// Node.Stack; external client hosts are bare stacks).
	Stack = netstack.Stack
	// TCPSocket and UDPSocket are the simulated kernel sockets.
	TCPSocket = netstack.TCPSocket
	// UDPSocket is the datagram counterpart.
	UDPSocket = netstack.UDPSocket
)

// Migration engine types.
type (
	// Migrator is the per-node migration daemon (migd).
	Migrator = migration.Migrator
	// MigrationConfig tunes precopy, strategy, capture and deadlines.
	MigrationConfig = migration.Config
	// MigrationMetrics reports one migration (freeze time, bytes, …).
	MigrationMetrics = migration.Metrics
	// Strategy selects the socket migration variant.
	Strategy = sockmig.Strategy
	// Guardian / Standby are the fault-tolerance extension.
	Guardian = migration.Guardian
	// Standby receives checkpoints and restarts processes after a crash.
	Standby = migration.Standby
)

// Socket migration strategies (§III-C).
const (
	Iterative             = sockmig.Iterative
	Collective            = sockmig.Collective
	IncrementalCollective = sockmig.IncrementalCollective
)

// Load balancing middleware types.
type (
	// Conductor is the per-node load-balancing daemon (cond).
	Conductor = lb.Conductor
	// ConductorConfig tunes the four policies.
	ConductorConfig = lb.Config
)

// NewScheduler creates the virtual clock a simulation runs on.
func NewScheduler() *Scheduler { return simtime.NewScheduler() }

// NewCluster builds a single-IP cluster with n server nodes attached to
// a broadcast router (public side) and a switch (in-cluster side).
func NewCluster(sched *Scheduler, n int) *Cluster { return proc.NewCluster(sched, n) }

// NewMigrator starts the migration service (migd + capture + transd) on
// a node.
func NewMigrator(n *Node, cfg MigrationConfig) (*Migrator, error) {
	return migration.NewMigrator(n, cfg)
}

// DefaultMigrationConfig returns the paper's configuration: precopy with
// a 20 ms freeze threshold and incremental collective socket migration.
func DefaultMigrationConfig() MigrationConfig { return migration.DefaultConfig() }

// NewConductor starts the load-balancing daemon on a node that already
// runs a Migrator.
func NewConductor(n *Node, m *Migrator, cfg ConductorConfig) (*Conductor, error) {
	return lb.NewConductor(n, m, cfg)
}

// DefaultConductorConfig returns the evaluation's policy parameters.
func DefaultConductorConfig() ConductorConfig { return lb.DefaultConfig() }

// NewGuardian starts periodic checkpointing of p to the standby at buddy.
func NewGuardian(p *Process, buddy Addr, interval Duration) (*Guardian, error) {
	return migration.NewGuardian(p, buddy, interval)
}

// NewStandby starts the checkpoint receiver on a node.
func NewStandby(n *Node) (*Standby, error) { return migration.NewStandby(n) }

// NewTCPSocket allocates a TCP socket on a node's stack.
func NewTCPSocket(n *Node) *TCPSocket { return netstack.NewTCPSocket(n.Stack) }

// NewTCPSocketOn allocates a TCP socket on any stack (e.g. an external
// client host created with Cluster.NewExternalHost).
func NewTCPSocketOn(st *Stack) *TCPSocket { return netstack.NewTCPSocket(st) }

// NewUDPSocket allocates a UDP socket on a node's stack.
func NewUDPSocket(n *Node) *UDPSocket { return netstack.NewUDPSocket(n.Stack) }

// NewUDPSocketOn allocates a UDP socket on any stack.
func NewUDPSocketOn(st *Stack) *UDPSocket { return netstack.NewUDPSocket(st) }

// Experiment entry points (the paper's evaluation, ready to run).
type (
	// DVEConfig / DVEResults drive the Fig 5 distributed-virtual-
	// environment experiment.
	DVEConfig = dve.Config
	// DVEResults carries the measured series.
	DVEResults = dve.Results
	// Fig4Config / Fig4Result drive the OpenArena experiment.
	Fig4Config = openarena.Fig4Config
	// Fig4Result carries Fig 4's measurements.
	Fig4Result = openarena.Fig4Result
)

// DefaultDVEConfig mirrors §VI-C: 5 nodes, 10,000 clients, ~15 minutes.
func DefaultDVEConfig() DVEConfig { return dve.DefaultConfig() }

// RunDVE builds and runs the Fig 5d/5e/5f simulation.
func RunDVE(cfg DVEConfig) (*DVEResults, error) {
	sim, err := dve.New(cfg)
	if err != nil {
		return nil, err
	}
	return sim.Run(), nil
}

// DefaultFig4Config mirrors §VI-B: 24 clients, 20 updates/s.
func DefaultFig4Config() Fig4Config { return openarena.DefaultFig4Config() }

// RunFig4 runs the OpenArena migration experiment.
func RunFig4(cfg Fig4Config) (*Fig4Result, error) { return openarena.RunFig4(cfg) }
