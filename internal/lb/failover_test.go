package lb

import (
	"testing"
	"time"

	"dvemig/internal/faults"
	"dvemig/internal/migration"
	"dvemig/internal/netsim"
	"dvemig/internal/netstack"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
)

// announceService spawns a guarded counter service on the owner node:
// a process ticking a counter into page 0 and serving a UDP port on the
// cluster IP, checkpointed every interval to a standby on the buddy
// node, its ownership announced through the owner's conductor.
func announceService(t *testing.T, e *lbEnv, owner, buddy int, name string,
	interval simtime.Duration) (*proc.Process, *migration.Guardian) {
	t.Helper()
	n := e.c.Nodes[owner]
	p := n.Spawn(name, 1)
	v := p.AS.Mmap(8*proc.PageSize, "rw-")
	p.Tick = func(self *proc.Process) {
		cur, _ := self.AS.Read(v.Start, 8)
		x := uint64(cur[0]) | uint64(cur[1])<<8
		x++
		_ = self.AS.Write(v.Start, []byte{byte(x), byte(x >> 8)})
	}
	us := netstack.NewUDPSocket(n.Stack)
	if err := us.Bind(e.c.ClusterIP, 5151); err != nil {
		t.Fatal(err)
	}
	p.FDs.Install(&proc.UDPFile{Sock: us})
	n.StartLoop(p, 50*time.Millisecond)
	g, err := migration.NewGuardian(p, e.c.Nodes[buddy].LocalIP, interval)
	if err != nil {
		t.Fatal(err)
	}
	e.conductors[owner].AnnounceOwnership(name, g)
	return p, g
}

func enableStandby(t *testing.T, e *lbEnv, i int) *migration.Standby {
	t.Helper()
	sb, err := migration.NewStandby(e.c.Nodes[i])
	if err != nil {
		t.Fatal(err)
	}
	e.conductors[i].EnableFailover(sb)
	return sb
}

func findByName(n *proc.Node, name string) *proc.Process {
	for _, p := range n.Processes() {
		if p.Name == name && p.State == proc.ProcRunning {
			return p
		}
	}
	return nil
}

func counterValue(t *testing.T, p *proc.Process) uint64 {
	t.Helper()
	v := p.AS.VMAs()[0]
	cur, err := p.AS.Read(v.Start, 8)
	if err != nil {
		t.Fatal(err)
	}
	return uint64(cur[0]) | uint64(cur[1])<<8
}

func countEvents(cd *Conductor, kind string) int {
	n := 0
	for _, ev := range cd.Events {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

// TestDetectorStateTransitions walks one peer through the detector:
// silence shorter than suspectAfter leaves it alive; past suspectAfter
// it turns suspect (and stops receiving migrations); a heartbeat
// revives it; silence past peerTimeout confirms it dead.
func TestDetectorStateTransitions(t *testing.T) {
	e := newLBEnv(t, 3, DefaultConfig()) // Period 1s → suspect 2s, dead 4s
	inj := faults.NewInjector(e.c.Sched, 1)
	e.c.Sched.RunFor(3 * time.Second)
	victim := e.c.Nodes[2].LocalIP
	if e.conductors[0].PeerState(victim) != PeerAlive {
		t.Fatal("setup: peer not alive")
	}

	// A flap shorter than suspectAfter: never even suspected. Windows
	// start mid-tick (+200ms) so they never race a heartbeat boundary.
	now := e.c.Sched.Now()
	inj.DownFor(e.c.Nodes[2].LocalNIC, now+200*1e6, now+1700*1e6)
	e.c.Sched.RunFor(4 * time.Second)
	if got := countEvents(e.conductors[0], "suspect"); got != 0 {
		t.Fatalf("short flap raised %d suspicions", got)
	}

	// Silence past suspectAfter but healed before peerTimeout: suspected,
	// revived, never declared dead.
	now = e.c.Sched.Now()
	inj.DownFor(e.c.Nodes[2].LocalNIC, now+200*1e6, now+3700*1e6)
	e.c.Sched.RunFor(3300 * time.Millisecond)
	if e.conductors[0].PeerState(victim) != PeerSuspect {
		t.Fatalf("state = %v, want suspect", e.conductors[0].PeerState(victim))
	}
	e.c.Sched.RunFor(3 * time.Second)
	if e.conductors[0].PeerState(victim) != PeerAlive {
		t.Fatal("suspect peer not revived by heartbeat")
	}
	if countEvents(e.conductors[0], "peer-dead") != 0 {
		t.Fatal("flapping peer declared dead")
	}

	// Real death: silence past peerTimeout.
	e.conductors[2].Stop()
	e.c.RemoveNode(e.c.Nodes[2])
	e.c.Sched.RunFor(6 * time.Second)
	if e.conductors[0].PeerState(victim) != PeerDead {
		t.Fatalf("state = %v, want dead", e.conductors[0].PeerState(victim))
	}
	if countEvents(e.conductors[0], "peer-dead") != 1 {
		t.Fatal("no peer-dead event")
	}
	if e.conductors[0].PeerCount() != 1 {
		t.Fatalf("PeerCount = %d, want 1", e.conductors[0].PeerCount())
	}
	// The dead entry is retained (still heartbeated) and GC'd only after
	// the retention window.
	if e.conductors[0].PeerState(victim) == PeerUnknown {
		t.Fatal("dead peer GC'd before retention window")
	}
}

// TestSuspectPeerExcludedFromPolicies: the transfer/location policies
// must not pick a suspect destination.
func TestSuspectPeerExcludedFromPolicies(t *testing.T) {
	cfg := DefaultConfig()
	e := newLBEnv(t, 2, cfg)
	e.c.Sched.RunFor(2 * time.Second)
	cd := e.conductors[0]
	spawnWorker(e.c.Nodes[0], "w", 1.9)
	cd.load = 0.95
	for _, p := range cd.peers {
		p.state, p.load = PeerSuspect, 0
	}
	cd.considerBalance()
	if cd.state != stateIdle {
		t.Fatal("balancer proposed to a suspect peer")
	}
	// Control: the same situation with an alive peer does propose.
	for _, p := range cd.peers {
		p.state = PeerAlive
	}
	cd.considerBalance()
	if cd.state != stateSending {
		t.Fatal("control: alive peer not proposed to")
	}
}

// TestDetectorDrivenFailover is the tentpole's end-to-end path: the
// owner crashes, the detector confirms it dead, the buddy holding its
// images claims, wins the (unopposed) election, activates under a
// bumped epoch and advertises the new ownership.
func TestDetectorDrivenFailover(t *testing.T) {
	e := newLBEnv(t, 3, DefaultConfig())
	enableStandby(t, e, 1)
	p, _ := announceService(t, e, 0, 1, "counter_svc", 500*1e6)
	e.c.Sched.RunFor(3 * time.Second)
	before := counterValue(t, p)
	if before == 0 {
		t.Fatal("service never ran")
	}

	e.c.Nodes[0].Fail(e.c)
	e.c.Sched.RunFor(12 * time.Second)

	cd1 := e.conductors[1]
	if cd1.Failovers != 1 {
		t.Fatalf("Failovers = %d, want 1", cd1.Failovers)
	}
	if countEvents(cd1, "claim") == 0 || countEvents(cd1, "activate") == 0 {
		t.Fatal("claim/activate events missing")
	}
	q := findByName(e.c.Nodes[1], "counter_svc")
	if q == nil {
		t.Fatal("service not restarted on the buddy")
	}
	// The witness without an image never activates.
	if e.conductors[2].Failovers != 0 {
		t.Fatal("imageless witness activated")
	}
	// Epoch bumped past the image's: the owner announced under epoch 1,
	// so the failed-over service runs under ≥2.
	ep, suspended := cd1.OwnershipEpoch("counter_svc")
	if ep < 2 || suspended {
		t.Fatalf("new ownership epoch=%d suspended=%v", ep, suspended)
	}
	// The service keeps making progress on the new owner.
	restored := counterValue(t, q)
	e.c.Sched.RunFor(2 * time.Second)
	if counterValue(t, q) <= restored {
		t.Fatal("restarted service does not run")
	}
	// Exactly one running owner cluster-wide.
	owners := 0
	for _, n := range e.c.Nodes {
		if findByName(n, "counter_svc") != nil {
			owners++
		}
	}
	if owners != 1 {
		t.Fatalf("%d running owners", owners)
	}
}

// TestClaimElectionFreshestImageWins: two standbys hold images of the
// same service at the same epoch but different checkpoint seqs. Both
// claim when the owner dies; the staler claimant must yield.
func TestClaimElectionFreshestImageWins(t *testing.T) {
	e := newLBEnv(t, 3, DefaultConfig())
	enableStandby(t, e, 1)
	enableStandby(t, e, 2)
	// Fast guardian to node2's standby... no: node1 gets the fast one so
	// the winner is not just the lower address.
	p, g1 := announceService(t, e, 0, 1, "counter_svc", 400*1e6)
	g2, err := migration.NewGuardian(p, e.c.Nodes[2].LocalIP, 1100*1e6)
	if err != nil {
		t.Fatal(err)
	}
	g2.Epoch = g1.Epoch // both ship under the announced epoch
	e.c.Sched.RunFor(5 * time.Second)

	e.c.Nodes[0].Fail(e.c)
	e.c.Sched.RunFor(15 * time.Second)

	if e.conductors[1].Failovers != 1 || e.conductors[2].Failovers != 0 {
		t.Fatalf("failovers = %d/%d, want the fresher image (node2's standby lost: seq gap)",
			e.conductors[1].Failovers, e.conductors[2].Failovers)
	}
	if countEvents(e.conductors[2], "claim") == 0 {
		t.Fatal("losing standby never claimed")
	}
	owners := 0
	for _, n := range e.c.Nodes {
		if findByName(n, "counter_svc") != nil {
			owners++
		}
	}
	if owners != 1 {
		t.Fatalf("%d running owners after election", owners)
	}
}

// TestFlappingOwnerTriggersNoFailover: the owner's link drops for a
// window past suspectAfter but short of peerTimeout. The detector
// suspects it; nobody claims, nobody activates, and the owner never
// self-suspends (its own view of the peers is merely suspect too).
func TestFlappingOwnerTriggersNoFailover(t *testing.T) {
	e := newLBEnv(t, 3, DefaultConfig())
	inj := faults.NewInjector(e.c.Sched, 1)
	enableStandby(t, e, 1)
	p, _ := announceService(t, e, 0, 1, "counter_svc", 500*1e6)
	e.c.Sched.RunFor(3 * time.Second)

	now := e.c.Sched.Now()
	inj.DownFor(e.c.Nodes[0].LocalNIC, now, now+3*1e9) // suspect at 2s, dead at 4s
	e.c.Sched.RunFor(10 * time.Second)

	for i, cd := range e.conductors {
		if n := countEvents(cd, "claim") + countEvents(cd, "activate"); n != 0 {
			t.Fatalf("conductor %d ran a failover for a flap (%d events)", i, n)
		}
	}
	if countEvents(e.conductors[0], "suspend") != 0 {
		t.Fatal("owner self-suspended during a flap shorter than peerTimeout")
	}
	if findByName(e.c.Nodes[0], "counter_svc") != p {
		t.Fatal("service disturbed by the flap")
	}
	before := counterValue(t, p)
	e.c.Sched.RunFor(time.Second)
	if counterValue(t, p) <= before {
		t.Fatal("service stopped ticking")
	}
}

// TestIsolatedOwnerSuspendsAndResumes: an owner that loses sight of
// every peer goes mute (loop stopped, sockets unhashed) and resumes
// only after the heal grace passes with no higher-epoch owner heard.
func TestIsolatedOwnerSuspendsAndResumes(t *testing.T) {
	e := newLBEnv(t, 2, DefaultConfig())
	inj := faults.NewInjector(e.c.Sched, 1)
	p, _ := announceService(t, e, 0, 1, "counter_svc", 500*1e6)
	e.c.Sched.RunFor(3 * time.Second)

	now := e.c.Sched.Now()
	inj.DownFor(e.c.Nodes[0].LocalNIC, now, now+10*1e9)
	e.c.Sched.RunFor(8 * time.Second)
	if countEvents(e.conductors[0], "suspend") != 1 {
		t.Fatal("isolated owner did not suspend")
	}
	if _, suspended := e.conductors[0].OwnershipEpoch("counter_svc"); !suspended {
		t.Fatal("ownership not marked suspended")
	}
	frozen := counterValue(t, p)
	e.c.Sched.RunFor(time.Second)
	if counterValue(t, p) != frozen {
		t.Fatal("suspended service still ticking")
	}
	_, udp := p.Sockets()
	if len(udp) != 1 || !udp[0].Unhashed() {
		t.Fatal("suspended service's socket still hashed")
	}

	// Heal; nobody holds an image, so after resumeGrace the owner
	// resumes exactly where it left off.
	e.c.Sched.RunFor(10 * time.Second)
	if countEvents(e.conductors[0], "resume") != 1 {
		t.Fatal("healed owner did not resume")
	}
	if _, suspended := e.conductors[0].OwnershipEpoch("counter_svc"); suspended {
		t.Fatal("ownership still suspended after resume")
	}
	if udp[0].Unhashed() {
		t.Fatal("socket not rehashed on resume")
	}
	after := counterValue(t, p)
	e.c.Sched.RunFor(time.Second)
	if counterValue(t, p) <= after {
		t.Fatal("resumed service does not tick")
	}
}

// TestHealedStaleOwnerIsFenced is the split-brain heal: the owner is
// partitioned long enough for the standby side to confirm it dead and
// activate under a higher epoch. When the partition heals, the old
// owner hears the new epoch and dismantles its copy instead of
// resuming — converging to exactly one owner.
func TestHealedStaleOwnerIsFenced(t *testing.T) {
	e := newLBEnv(t, 3, DefaultConfig())
	inj := faults.NewInjector(e.c.Sched, 1)
	enableStandby(t, e, 1)
	p, _ := announceService(t, e, 0, 1, "counter_svc", 500*1e6)
	e.c.Sched.RunFor(3 * time.Second)

	now := e.c.Sched.Now()
	inj.DownFor(e.c.Nodes[0].LocalNIC, now, now+14*1e9)
	e.c.Sched.RunFor(20 * time.Second)

	// The partitioned owner suspended, then got fenced on heal — it must
	// not have resumed.
	cd0 := e.conductors[0]
	if countEvents(cd0, "suspend") != 1 {
		t.Fatal("isolated owner did not suspend")
	}
	if countEvents(cd0, "fence") != 1 {
		t.Fatal("healed stale owner was not fenced")
	}
	if countEvents(cd0, "resume") != 0 {
		t.Fatal("stale owner resumed despite the higher epoch")
	}
	if ep, _ := cd0.OwnershipEpoch("counter_svc"); ep != 0 {
		t.Fatal("stale owner still thinks it owns the service")
	}
	if p.State == proc.ProcRunning {
		t.Fatal("fenced process still running")
	}
	// The standby side activated exactly once and serves alone.
	if e.conductors[1].Failovers != 1 {
		t.Fatalf("Failovers = %d, want 1", e.conductors[1].Failovers)
	}
	owners := 0
	for _, n := range e.c.Nodes {
		if findByName(n, "counter_svc") != nil {
			owners++
		}
	}
	if owners != 1 {
		t.Fatalf("%d running owners after heal", owners)
	}
	// The old owner's epoch table ratcheted to the new owner's epoch.
	newEp, _ := e.conductors[1].OwnershipEpoch("counter_svc")
	if got := e.migrators[0].Epochs.Current("counter_svc"); got < newEp {
		t.Fatalf("stale owner's watermark %d below new epoch %d", got, newEp)
	}
}

// TestClaimOrdering pins the election comparator: epoch before seq,
// seq before address, lower address breaking exact ties.
func TestClaimOrdering(t *testing.T) {
	cases := []struct {
		aEp, aSeq uint64
		aAddr     uint32
		bEp, bSeq uint64
		bAddr     uint32
		want      bool
	}{
		{2, 1, 9, 1, 99, 1, true},   // higher epoch beats any seq
		{1, 5, 9, 1, 3, 1, true},    // same epoch: higher seq
		{1, 5, 2, 1, 5, 9, true},    // exact tie: lower address
		{1, 5, 9, 1, 5, 2, false},   // exact tie: higher address loses
		{1, 2, 1, 2, 99, 99, false}, // lower epoch loses
	}
	for i, tc := range cases {
		got := claimBeats(tc.aEp, tc.aSeq, netsim.Addr(tc.aAddr), tc.bEp, tc.bSeq, netsim.Addr(tc.bAddr))
		if got != tc.want {
			t.Errorf("case %d: claimBeats = %v, want %v", i, got, tc.want)
		}
	}
}

// TestOwnerMsgRoundtrip pins the advert/claim wire format.
func TestOwnerMsgRoundtrip(t *testing.T) {
	b := appendOwnerMsg(nil, opClaim, "zone_serv", 7, 41)
	if b[0] != opClaim || len(b) != 17+len("zone_serv") {
		t.Fatalf("frame: op=%d len=%d", b[0], len(b))
	}
	name, ep, seq, err := decodeOwnerMsg(b)
	if err != nil || name != "zone_serv" || ep != 7 || seq != 41 {
		t.Fatalf("roundtrip: %q/%d/%d/%v", name, ep, seq, err)
	}
	if _, _, _, err := decodeOwnerMsg(b[:16]); err == nil {
		t.Fatal("short frame accepted")
	}
}
