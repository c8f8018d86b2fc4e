package lb

import (
	"testing"
	"time"

	"dvemig/internal/migration"
	"dvemig/internal/netsim"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
)

// lbEnv wires a cluster with migrators and conductors on every node.
type lbEnv struct {
	c          *proc.Cluster
	migrators  []*migration.Migrator
	conductors []*Conductor
}

func newLBEnv(t *testing.T, nodes int, cfg Config) *lbEnv {
	t.Helper()
	e := &lbEnv{c: proc.NewCluster(simtime.NewScheduler(), nodes)}
	for _, n := range e.c.Nodes {
		m, err := migration.NewMigrator(n, migration.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		e.migrators = append(e.migrators, m)
		cd, err := NewConductor(n, m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.conductors = append(e.conductors, cd)
	}
	return e
}

// spawnWorker creates a migratable process with the given CPU demand.
func spawnWorker(n *proc.Node, name string, demand float64) *proc.Process {
	p := n.Spawn(name, 1)
	v := p.AS.Mmap(32*proc.PageSize, "rw-")
	for i := uint64(0); i < 8; i++ {
		p.AS.Write(v.Start+i*proc.PageSize, []byte{byte(i)})
	}
	p.CPUDemand = demand
	p.Tick = func(self *proc.Process) {
		self.AS.Touch(v.Start)
	}
	n.StartLoop(p, 50*time.Millisecond)
	return p
}

func TestDiscoveryFindsAllPeers(t *testing.T) {
	e := newLBEnv(t, 5, DefaultConfig())
	e.c.Sched.RunFor(3 * time.Second)
	for i, cd := range e.conductors {
		if cd.PeerCount() != 4 {
			t.Fatalf("conductor %d peers = %d, want 4", i, cd.PeerCount())
		}
	}
}

func TestHeartbeatPropagatesLoadAndAverage(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ImbalanceThreshold = 10 // never migrate in this test
	e := newLBEnv(t, 2, cfg)
	spawnWorker(e.c.Nodes[0], "w", 1.6) // load 0.8 on node1
	e.c.Sched.RunFor(10 * time.Second)
	// Node2's view of the average should be ~ (0.8+0)/2.
	avg := e.conductors[1].ClusterAverage()
	if avg < 0.3 || avg > 0.5 {
		t.Fatalf("cluster average = %v, want ≈0.4", avg)
	}
	if l := e.conductors[0].Load(); l < 0.7 {
		t.Fatalf("local load = %v, want ≈0.8", l)
	}
}

func TestPeerExpiryOnSilence(t *testing.T) {
	e := newLBEnv(t, 3, DefaultConfig())
	e.c.Sched.RunFor(3 * time.Second)
	if e.conductors[0].PeerCount() != 2 {
		t.Fatal("setup")
	}
	e.conductors[2].Stop()
	e.c.RemoveNode(e.c.Nodes[2])
	e.c.Sched.RunFor(10 * time.Second)
	if e.conductors[0].PeerCount() != 1 {
		t.Fatalf("dead peer not expired: %d", e.conductors[0].PeerCount())
	}
}

func TestBalanceMigratesFromHotToCold(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CalmDown = 5e9
	e := newLBEnv(t, 3, cfg)
	// Node1: four workers ≈ 0.95 load; others idle.
	for i := 0; i < 4; i++ {
		spawnWorker(e.c.Nodes[0], "zone", 0.475)
	}
	e.c.Sched.RunFor(3 * time.Minute)
	n1 := e.c.Nodes[0].NumProcesses()
	n2 := e.c.Nodes[1].NumProcesses()
	n3 := e.c.Nodes[2].NumProcesses()
	if n1+n2+n3 != 4 {
		t.Fatalf("processes lost: %d+%d+%d", n1, n2, n3)
	}
	if n2+n3 < 2 {
		t.Fatalf("load not spread: node1=%d node2=%d node3=%d", n1, n2, n3)
	}
	if e.conductors[0].Migrations == 0 {
		t.Fatal("no migrations recorded")
	}
	// Loads converged: node1 no longer above average by the threshold.
	avg := e.conductors[0].ClusterAverage()
	if e.conductors[0].Load()-avg > cfg.ImbalanceThreshold+0.05 {
		t.Fatalf("node1 still imbalanced: load=%v avg=%v", e.conductors[0].Load(), avg)
	}
}

func TestReceiverAcceptsOneMigrationAtATime(t *testing.T) {
	cfg := DefaultConfig()
	e := newLBEnv(t, 2, cfg)
	e.c.Sched.RunFor(2 * time.Second)
	recv := e.conductors[1]
	// Simulate two concurrent proposals by invoking the handler directly:
	// op, seq, then the sender's load and trace context, all zero.
	propose := func(seq uint32) []byte {
		return append(seqMsg(opPropose, seq), make([]byte, 24)...)
	}
	recv.handlePropose(e.c.Nodes[0].LocalIP, propose(1))
	if recv.state != stateReceiving {
		t.Fatal("first proposal not accepted")
	}
	recv.handlePropose(e.c.Nodes[0].LocalIP, propose(2))
	if recv.state != stateReceiving {
		t.Fatal("state corrupted by second proposal")
	}
}

func TestCalmDownBlocksImmediateRemigration(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CalmDown = time.Hour // effectively forever
	e := newLBEnv(t, 2, cfg)
	for i := 0; i < 4; i++ {
		spawnWorker(e.c.Nodes[0], "zone", 0.5)
	}
	e.c.Sched.RunFor(2 * time.Minute)
	if e.conductors[0].Migrations > 1 {
		t.Fatalf("calm-down ignored: %d migrations", e.conductors[0].Migrations)
	}
}

func TestSelectionPolicyPicksClosestProcess(t *testing.T) {
	e := newLBEnv(t, 2, DefaultConfig())
	n := e.c.Nodes[0]
	spawnWorker(n, "small", 0.1)
	mid := spawnWorker(n, "mid", 0.4)
	spawnWorker(n, "big", 0.9)
	got := e.conductors[0].selectProcess(0.2) // desired = 0.2*2 cores = 0.4
	if got != mid {
		t.Fatalf("selected %q, want mid", got.Name)
	}
	// Frozen processes are not eligible.
	mid.State = proc.ProcFrozen
	if e.conductors[0].selectProcess(0.2) == mid {
		t.Fatal("frozen process selected")
	}
}

func TestLateJoinerIsDiscovered(t *testing.T) {
	cfg := DefaultConfig()
	e := newLBEnv(t, 2, cfg)
	e.c.Sched.RunFor(3 * time.Second)
	// A third node joins later; its scan finds the others and their
	// replies register it.
	n3 := e.c.AddNode("node3")
	m3, err := migration.NewMigrator(n3, migration.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cd3, err := NewConductor(n3, m3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.c.Sched.RunFor(3 * time.Second)
	if cd3.PeerCount() != 2 {
		t.Fatalf("late joiner peers = %d", cd3.PeerCount())
	}
	if e.conductors[0].PeerCount() != 2 {
		t.Fatalf("existing node did not learn about joiner: %d", e.conductors[0].PeerCount())
	}
}

func TestNoMigrationWhenBalanced(t *testing.T) {
	cfg := DefaultConfig()
	e := newLBEnv(t, 3, cfg)
	for _, n := range e.c.Nodes {
		spawnWorker(n, "even", 0.8)
	}
	e.c.Sched.RunFor(2 * time.Minute)
	total := 0
	for _, cd := range e.conductors {
		total += cd.Migrations
	}
	if total != 0 {
		t.Fatalf("balanced cluster migrated %d times", total)
	}
}

func TestDrainEvacuatesNode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ImbalanceThreshold = 10 // disable autonomous balancing
	e := newLBEnv(t, 3, cfg)
	for i := 0; i < 3; i++ {
		spawnWorker(e.c.Nodes[0], "w", 0.2)
	}
	spawnWorker(e.c.Nodes[1], "busy", 0.9) // node2 busier than node3
	e.c.Sched.RunFor(3 * time.Second)

	var moved int
	var drainErr error
	doneAt := false
	e.conductors[0].Drain(func(m int, err error) { moved, drainErr, doneAt = m, err, true })
	e.c.Sched.RunFor(time.Minute)
	if !doneAt {
		t.Fatal("drain never completed")
	}
	if drainErr != nil {
		t.Fatalf("drain failed: %v", drainErr)
	}
	if moved != 3 || e.c.Nodes[0].NumProcesses() != 0 {
		t.Fatalf("moved=%d, left=%d", moved, e.c.Nodes[0].NumProcesses())
	}
	// Everything went to the least-loaded peer (node3).
	if e.c.Nodes[2].NumProcesses() != 3 {
		t.Fatalf("node3 has %d processes, want 3", e.c.Nodes[2].NumProcesses())
	}
	// Conductor resumes normal operation.
	if e.conductors[0].state != stateIdle {
		t.Fatal("conductor stuck after drain")
	}
	drains := 0
	for _, ev := range e.conductors[0].Events {
		if ev.Kind == "drain" {
			drains++
		}
	}
	if drains != 3 {
		t.Fatalf("drain events = %d", drains)
	}
}

func TestDrainWithoutPeersFails(t *testing.T) {
	cfg := DefaultConfig()
	e := newLBEnv(t, 1, cfg)
	spawnWorker(e.c.Nodes[0], "w", 0.2)
	var drainErr error
	e.conductors[0].Drain(func(m int, err error) { drainErr = err })
	e.c.Sched.RunFor(10 * time.Second)
	if drainErr == nil {
		t.Fatal("drain with no peers should fail")
	}
}

func TestDrainEmptyNodeIsNoop(t *testing.T) {
	cfg := DefaultConfig()
	e := newLBEnv(t, 2, cfg)
	e.c.Sched.RunFor(2 * time.Second)
	var moved = -1
	var drainErr error
	e.conductors[0].Drain(func(m int, err error) { moved, drainErr = m, err })
	e.c.Sched.RunFor(5 * time.Second)
	if moved != 0 || drainErr != nil {
		t.Fatalf("empty drain: moved=%d err=%v", moved, drainErr)
	}
}

func TestLocationPolicyPicksOppositeSideOfAverage(t *testing.T) {
	// §IV-B: the chosen receiver should be about as far below the cluster
	// average as the sender is above it. With the sender at 0.9 and peers
	// at {0.1, 0.45, 0.62}, average ≈ 0.52, excess ≈ 0.38: the 0.1 peer
	// (0.42 below) is the opposite-side match, NOT the least-loaded-wins
	// tie with 0.45 — here they coincide; distinguish by adding a peer
	// even further below: with peers {0.02, 0.45}, average ≈ 0.46 and
	// excess ≈ 0.44, so the 0.02 node (0.44 below) wins over 0.45.
	cfg := DefaultConfig()
	cfg.ImbalanceThreshold = 10 // manual control
	e := newLBEnv(t, 2, cfg)
	cd := e.conductors[0]
	cd.load = 0.9
	cd.peers = map[netsim.Addr]*peerInfo{
		1001: {addr: 1001, load: 0.02, lastSeen: cd.now()},
		1002: {addr: 1002, load: 0.45, lastSeen: cd.now()},
		1003: {addr: 1003, load: 0.60, lastSeen: cd.now()},
	}
	avg := cd.ClusterAverage()
	excess := cd.load - avg
	// Reproduce the policy's choice.
	var best netsim.Addr
	bestScore := 1e18
	for a, p := range cd.peers {
		if p.load >= avg {
			continue
		}
		score := excess - (avg - p.load)
		if score < 0 {
			score = -score
		}
		if score < bestScore {
			bestScore = score
			best = a
		}
	}
	if best != 1001 {
		t.Fatalf("opposite-side selection picked %v (avg=%.2f excess=%.2f)", best, avg, excess)
	}
}

func TestClusterAverageTracksTruth(t *testing.T) {
	// The decentralized approximation must converge to the true average
	// once heartbeats have flowed.
	cfg := DefaultConfig()
	cfg.ImbalanceThreshold = 10
	e := newLBEnv(t, 4, cfg)
	demands := []float64{1.8, 1.0, 0.4, 0.0}
	for i, d := range demands {
		if d > 0 {
			spawnWorker(e.c.Nodes[i], "w", d)
		}
	}
	e.c.Sched.RunFor(15 * time.Second)
	truth := (0.9 + 0.5 + 0.2 + 0.0) / 4 // demand/2 cores each
	for i, cd := range e.conductors {
		if diff := cd.ClusterAverage() - truth; diff > 0.05 || diff < -0.05 {
			t.Fatalf("conductor %d average %v, truth %v", i, cd.ClusterAverage(), truth)
		}
	}
}

func TestProposalTimeoutUnsticksSender(t *testing.T) {
	cfg := DefaultConfig()
	e := newLBEnv(t, 2, cfg)
	e.c.Sched.RunFor(2 * time.Second)
	cd := e.conductors[0]
	// Propose to a black hole.
	cd.propose(netsim.Addr(0x7F000001))
	if cd.state != stateSending {
		t.Fatal("propose did not enter sending state")
	}
	e.c.Sched.RunFor(10 * time.Second)
	if cd.state != stateIdle {
		t.Fatal("sender stuck after unanswered proposal")
	}
}

func TestReceiverReservationTimesOut(t *testing.T) {
	cfg := DefaultConfig()
	e := newLBEnv(t, 2, cfg)
	e.c.Sched.RunFor(2 * time.Second)
	recv := e.conductors[1]
	recv.handlePropose(e.c.Nodes[0].LocalIP, append(seqMsg(opPropose, 1), make([]byte, 24)...))
	if recv.state != stateReceiving {
		t.Fatal("not reserved")
	}
	// Sender never delivers; the reservation must expire.
	e.c.Sched.RunFor(30 * time.Second)
	if recv.state != stateIdle {
		t.Fatal("reservation never released")
	}
}
