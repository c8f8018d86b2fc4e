package eval

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"dvemig/internal/faults"
	"dvemig/internal/lb"
	"dvemig/internal/migration"
	"dvemig/internal/netsim"
	"dvemig/internal/netstack"
	"dvemig/internal/obs"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
)

// Failover chaos: the detector-driven failover path under node crashes
// and partitions, audited for the one property the single-IP broadcast
// cluster makes existential — no port is ever served by two owners, and
// a healed stale owner emits zero packets. A UDP "scoreboard" service
// answers client pings on the cluster IP; per-node sniffers on the
// public links record exactly which machine every reply left from, so
// double ownership cannot hide.

// scorePort is the scoreboard service's UDP port on the cluster IP.
const scorePort = 6000

// FailoverEnv is the environment a failover scenario's Arm hook
// sabotages: three nodes with conductors, the service owned by node 1
// (index 0), standbys with images on nodes 2 and 3 — node 2's fresher.
type FailoverEnv struct {
	Sched      *simtime.Scheduler
	Cluster    *proc.Cluster
	Inj        *faults.Injector
	Conductors []*lb.Conductor
	// FaultAt is when the harness expects the fault to begin.
	FaultAt simtime.Time
}

// FailoverScenario is one named fault script. Arm schedules the fault
// and returns (convergeBy, healAt): by convergeBy the cluster must be
// back to exactly one serving owner; healAt is when a partitioned old
// owner regains connectivity (0 = it never does — crash scenarios).
type FailoverScenario struct {
	Name string
	Arm  func(env *FailoverEnv) (convergeBy, healAt simtime.Time)
	// WantFailover: whether a standby activation must happen (false for
	// flap scenarios, where the owner must keep the service).
	WantFailover bool
}

// DefaultFailoverScenarios is the failover battery: a steady-state
// crash, a partition that heals after the standby side took over, and
// a link flap too short to trigger anything.
func DefaultFailoverScenarios() []FailoverScenario {
	return []FailoverScenario{
		{Name: "steady-crash", WantFailover: true,
			Arm: func(e *FailoverEnv) (simtime.Time, simtime.Time) {
				e.Sched.At(e.FaultAt, "failover.crash", func() {
					e.Cluster.Nodes[0].Fail(e.Cluster)
				})
				// Dead at +peerTimeout(4s)+tick, claim window 2s, slack.
				return e.FaultAt + 10*1e9, 0
			}},
		{Name: "partition-heal", WantFailover: true,
			Arm: func(e *FailoverEnv) (simtime.Time, simtime.Time) {
				// The owner's in-cluster link goes dark for 14s; its public
				// link keeps delivering every client packet — the broadcast
				// router's gift to split brain. The owner must self-fence,
				// the standby side take over, and the heal end in a fence,
				// not a resume.
				healAt := e.FaultAt + 14*1e9
				e.Inj.DownFor(e.Cluster.Nodes[0].LocalNIC, e.FaultAt, healAt)
				return e.FaultAt + 10*1e9, healAt
			}},
		{Name: "flap", WantFailover: false,
			Arm: func(e *FailoverEnv) (simtime.Time, simtime.Time) {
				// Down for 3s: past suspectAfter, short of peerTimeout.
				// Nobody may claim, activate, or suspend; the service rides
				// through on the owner.
				e.Inj.DownFor(e.Cluster.Nodes[0].LocalNIC, e.FaultAt, e.FaultAt+3*1e9)
				return e.FaultAt + 6*1e9, 0
			}},
	}
}

// FailoverResult is the outcome of one (scenario, seed) cell.
type FailoverResult struct {
	Scenario string
	Seed     uint64
	// Activations sums standby activations across conductors.
	Activations int
	// OwnerNode is the index of the node serving at the end (-1 = none).
	OwnerNode int
	// RepliesTotal counts scoreboard replies the client received.
	RepliesTotal int
	// Violations lists breaches of the exactly-once / single-owner /
	// mute-stale-owner audits (empty = the failover contract held).
	Violations []string
	// TraceHash is the cell's wire digest (every NIC, read after the
	// drain); equal hashes mean bit-identical runs.
	TraceHash uint64
	// PendingAfterDrain is the scheduler's pending-event count once the
	// harness has stopped every periodic activity and drained the cell
	// (nonzero = a leaked timer, also reported as a violation).
	PendingAfterDrain int
}

func (r *FailoverResult) capture() *obs.Capture        { return nil }
func (r *FailoverResult) verdict() (uint64, *[]string) { return r.TraceHash, &r.Violations }

// FailoverReport aggregates a sweep.
type FailoverReport struct{ Report[*FailoverResult] }

// Table renders the sweep for console output.
func (r *FailoverReport) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "failover chaos: single-owner and exactly-once audits per scenario\n")
	fmt.Fprintf(&b, "%-16s %6s %12s %7s %9s %11s %18s\n",
		"scenario", "seed", "activations", "owner", "replies", "violations", "trace-hash")
	for _, res := range r.Results {
		fmt.Fprintf(&b, "%-16s %6d %12d %7d %9d %11d %#18x\n",
			res.Scenario, res.Seed, res.Activations, res.OwnerNode,
			res.RepliesTotal, len(res.Violations), res.TraceHash)
	}
	return b.String()
}

// RunFailoverSweep runs every scenario at every seed, fanning the
// (scenario, seed) cells over up to workers goroutines (<= 0 selects
// GOMAXPROCS, 1 is the serial path). A failover cell records no flight
// window, so the replay of a violating one only checks that it is the
// same run.
func RunFailoverSweep(scenarios []FailoverScenario, seeds []uint64, workers int) (*FailoverReport, error) {
	rep, err := sweep(scenarios, seeds, workers, nil,
		func(sc FailoverScenario, seed uint64) string { return failoverKey(sc.Name, seed) },
		func(sc FailoverScenario, seed uint64, _ bool) (*FailoverResult, error) {
			return RunFailoverScenario(sc, seed)
		})
	return &FailoverReport{rep}, err
}

// serveSniffer records when scoreboard replies (UDP, source port
// scorePort) leave the node.
type serveSniffer struct {
	firstServe simtime.Time
	lastServe  simtime.Time
	serves     int
}

func (s *serveSniffer) PacketEvent(at simtime.Time, ev netsim.TapEvent, p *netsim.Packet) {
	if ev == netsim.TapTx && p.Proto == netsim.ProtoUDP && p.SrcPort == scorePort {
		if s.serves == 0 {
			s.firstServe = at
		}
		s.lastServe = at
		s.serves++
	}
}

// RunFailoverScenario runs one (scenario, seed) cell.
func RunFailoverScenario(sc FailoverScenario, seed uint64) (*FailoverResult, error) {
	f := newFixture(3, false, false, nil, "")
	f.hashWires()
	sched, cluster := f.sched, f.cluster
	inj := faults.NewInjector(sched, seed)

	var conds []*lb.Conductor
	for _, n := range cluster.Nodes {
		m, err := f.migrator(n, migration.DefaultConfig())
		if err != nil {
			return nil, err
		}
		cd, err := lb.NewConductor(n, m, lb.DefaultConfig())
		if err != nil {
			return nil, err
		}
		conds = append(conds, cd)
	}

	// Standbys on nodes 2 and 3.
	for i := 1; i <= 2; i++ {
		sb, err := migration.NewStandby(cluster.Nodes[i])
		if err != nil {
			return nil, err
		}
		conds[i].EnableFailover(sb)
	}

	// Per-node public-link sniffers: which machine every reply left from.
	nodeSniff := make([]*serveSniffer, 3)
	for i, n := range cluster.Nodes {
		nodeSniff[i] = &serveSniffer{}
		n.PublicNIC.AttachTap(nodeSniff[i])
	}
	host, _ := f.externalHost("players")

	// The scoreboard service on node 1: echoes every ping, keeps a
	// counter in page 0 so checkpoint images have changing content.
	owner := cluster.Nodes[0]
	p := owner.Spawn("scoreboard", 1)
	v := p.AS.Mmap(8*proc.PageSize, "rw-")
	p.Tick = func(self *proc.Process) {
		cur, _ := self.AS.Read(v.Start, 8)
		x := uint64(cur[0]) | uint64(cur[1])<<8
		x++
		_ = self.AS.Write(v.Start, []byte{byte(x), byte(x >> 8)})
		_, udp := self.Sockets()
		for _, us := range udp {
			for {
				d, ok := us.Recv()
				if !ok {
					break
				}
				_ = us.SendTo(d.SrcIP, d.SrcPort, d.Payload)
			}
		}
	}
	us := netstack.NewUDPSocket(owner.Stack)
	if err := us.Bind(cluster.ClusterIP, scorePort); err != nil {
		return nil, err
	}
	p.FDs.Install(&proc.UDPFile{Sock: us})
	owner.StartLoop(p, 50*1e6)

	// Guardians ship images to both standbys; node 2's is fresher
	// (shorter interval), so it must win the claim election.
	g1, err := migration.NewGuardian(p, cluster.Nodes[1].LocalIP, 500*1e6)
	if err != nil {
		return nil, err
	}
	g2, err := migration.NewGuardian(p, cluster.Nodes[2].LocalIP, 700*1e6)
	if err != nil {
		return nil, err
	}
	g2.Epoch = conds[0].AnnounceOwnership("scoreboard", g1)

	// The client pings the scoreboard every 50ms and tallies replies.
	cli := netstack.NewUDPSocket(host)
	cliAddr, err := host.SourceAddrFor(cluster.ClusterIP)
	if err != nil {
		return nil, err
	}
	cli.BindEphemeral(cliAddr)
	replyCount := make(map[string]int)
	cli.OnReadable = func() {
		for {
			d, ok := cli.Recv()
			if !ok {
				break
			}
			replyCount[string(d.Payload)]++
		}
	}
	seq := 0
	sentAt := make(map[string]simtime.Time)
	pinger := simtime.NewTicker(sched, 50*1e6, "failover.pinger", func() {
		msg := fmt.Sprintf("p%d;", seq)
		seq++
		sentAt[msg] = sched.Now()
		_ = cli.SendTo(cluster.ClusterIP, scorePort, []byte(msg))
	})
	pinger.Start()

	env := &FailoverEnv{
		Sched: sched, Cluster: cluster, Inj: inj,
		Conductors: conds, FaultAt: 5 * 1e9,
	}
	convergeBy, healAt := sc.Arm(env)

	end := convergeBy + 8*1e9
	if healAt > 0 && healAt+8*1e9 > end {
		end = healAt + 8*1e9
	}
	sched.RunUntil(end - 1e9)
	pinger.Stop()
	sched.RunUntil(end)

	res := &FailoverResult{Scenario: sc.Name, Seed: seed, OwnerNode: -1}
	for _, cd := range conds {
		res.Activations += cd.Failovers
	}
	for _, n := range replyCount {
		res.RepliesTotal += n
	}

	// Audit 1 — exactly-once: no ping is ever answered twice (a
	// duplicate means two owners heard the same broadcast datagram),
	// and every ping sent after convergence is answered exactly once.
	dups := 0
	for _, n := range replyCount {
		if n > 1 {
			dups++
		}
	}
	if dups > 0 {
		res.Violations = append(res.Violations,
			fmt.Sprintf("%d pings answered more than once", dups))
	}
	missed := 0
	for msg, at := range sentAt {
		if at >= convergeBy && at < end-2*1e9 && replyCount[msg] == 0 {
			missed++
		}
	}
	if missed > 0 {
		res.Violations = append(res.Violations,
			fmt.Sprintf("%d post-convergence pings unanswered", missed))
	}

	// Audit 2 — single owner: exactly one node runs the service at the
	// end, and it is the expected one.
	home, breach := singleOwner(cluster.Nodes, "scoreboard", true)
	if breach != "" && home != nil {
		res.Violations = append(res.Violations, "service running on two nodes")
	}
	res.OwnerNode = slices.Index(cluster.Nodes, home)
	wantOwner, wantActivations := 0, 0
	if sc.WantFailover {
		wantOwner, wantActivations = 1, 1 // the fresher standby
	}
	if res.OwnerNode != wantOwner {
		res.Violations = append(res.Violations,
			fmt.Sprintf("owner on node %d, want %d", res.OwnerNode, wantOwner))
	}
	if res.Activations != wantActivations {
		res.Violations = append(res.Violations,
			fmt.Sprintf("%d activations, want %d", res.Activations, wantActivations))
	}

	// Audit 3 — clean handover, mute stale owner: after a failover the
	// old owner's last reply predates the new owner's first; node 3
	// (stale image) never serves; after a heal the old owner emits
	// nothing — not one packet from the stale epoch.
	if sc.WantFailover {
		if nodeSniff[1].serves == 0 {
			res.Violations = append(res.Violations, "new owner never served")
		} else if nodeSniff[0].serves > 0 && nodeSniff[0].lastServe >= nodeSniff[1].firstServe {
			res.Violations = append(res.Violations,
				fmt.Sprintf("overlapping service: old owner still replying at %d, new owner started %d",
					nodeSniff[0].lastServe, nodeSniff[1].firstServe))
		}
		if healAt > 0 && nodeSniff[0].lastServe >= healAt {
			res.Violations = append(res.Violations, "stale owner served after the heal")
		}
	}
	if nodeSniff[2].serves > 0 {
		res.Violations = append(res.Violations, "node with stale image served")
	}

	// Drain: conductors (and with them the failure detectors), the
	// guardians and the process loops are everything periodic here.
	for _, cd := range conds {
		cd.Stop()
	}
	g1.Stop()
	g2.Stop()
	for _, n := range cluster.Nodes {
		for _, pr := range n.Processes() {
			n.StopLoop(pr)
		}
	}
	res.Violations = append(res.Violations, f.drain()...)
	res.PendingAfterDrain = sched.Pending()
	res.TraceHash = f.digest.h
	sort.Strings(res.Violations)
	return res, nil
}
