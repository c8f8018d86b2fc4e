package migration

import (
	"fmt"
	"testing"
	"time"

	"dvemig/internal/ckpt"
	"dvemig/internal/netstack"
	"dvemig/internal/obs"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
)

// failoverEnv: a counter service on node1 guarded by node2.
func failoverSetup(t *testing.T) (c *proc.Cluster, p *proc.Process, g *Guardian, sb *Standby) {
	t.Helper()
	c = proc.NewCluster(simtime.NewScheduler(), 2)
	var err error
	sb, err = NewStandby(c.Nodes[1])
	if err != nil {
		t.Fatal(err)
	}
	p = c.Nodes[0].Spawn("counter_svc", 1)
	v := p.AS.Mmap(8*proc.PageSize, "rw-")
	// The app persists its counter into page 0 each tick.
	p.Tick = func(self *proc.Process) {
		cur, _ := self.AS.Read(v.Start, 8)
		n := uint64(cur[0]) | uint64(cur[1])<<8
		n++
		_ = self.AS.Write(v.Start, []byte{byte(n), byte(n >> 8)})
	}
	// A UDP service port and a listener, plus an established conn that
	// must NOT survive a crash.
	us := netstack.NewUDPSocket(c.Nodes[0].Stack)
	if err := us.Bind(c.ClusterIP, 4242); err != nil {
		t.Fatal(err)
	}
	p.FDs.Install(&proc.UDPFile{Sock: us})
	lst := netstack.NewTCPSocket(c.Nodes[0].Stack)
	if err := lst.Listen(c.ClusterIP, 4243); err != nil {
		t.Fatal(err)
	}
	p.FDs.Install(&proc.TCPFile{Sock: lst})
	est := netstack.NewTCPSocket(c.Nodes[0].Stack)
	if err := est.Connect(c.Nodes[1].LocalIP, StandbyPort); err != nil {
		t.Fatal(err) // any reachable port works for an established conn
	}
	p.FDs.Install(&proc.TCPFile{Sock: est})
	c.Nodes[0].StartLoop(p, 50*time.Millisecond)
	c.Sched.RunFor(time.Second)

	g, err = NewGuardian(p, c.Nodes[1].LocalIP, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return c, p, g, sb
}

func counterOf(t *testing.T, p *proc.Process) uint64 {
	t.Helper()
	v := p.AS.VMAs()[0]
	cur, err := p.AS.Read(v.Start, 8)
	if err != nil {
		t.Fatal(err)
	}
	return uint64(cur[0]) | uint64(cur[1])<<8
}

func TestGuardianShipsCheckpoints(t *testing.T) {
	c, _, g, sb := failoverSetup(t)
	c.Sched.RunFor(3 * time.Second)
	if g.Sent < 5 {
		t.Fatalf("guardian sent %d checkpoints", g.Sent)
	}
	if !sb.Have("counter_svc") {
		t.Fatal("standby stored nothing")
	}
	if g.LastBytes < 1000 {
		t.Fatalf("image suspiciously small: %d bytes", g.LastBytes)
	}
}

func TestFailoverRestartsFromLatestImage(t *testing.T) {
	c, p, g, sb := failoverSetup(t)
	c.Sched.RunFor(5 * time.Second)
	before := counterOf(t, p)
	if before == 0 {
		t.Fatal("counter never ran")
	}
	// Node1 dies.
	g.Stop()
	c.Nodes[0].Fail(c)
	c.Sched.RunFor(time.Second)

	q, err := sb.Activate("counter_svc")
	if err != nil {
		t.Fatal(err)
	}
	if q.Node != c.Nodes[1] {
		t.Fatal("restarted on wrong node")
	}
	restored := counterOf(t, q)
	// At most one checkpoint interval of progress lost (500ms = 10 ticks),
	// plus the second of post-failure delay during which nothing ran.
	if restored > before || before-restored > 11 {
		t.Fatalf("counter restored to %d, last live value %d (too much loss)", restored, before)
	}
	// The loop continues on the standby.
	c.Sched.RunFor(time.Second)
	after := counterOf(t, q)
	if after <= restored {
		t.Fatal("restarted process does not run")
	}
	// FD table: UDP and listener restored, established TCP dropped.
	tcp, udp := q.Sockets()
	if len(udp) != 1 {
		t.Fatalf("udp sockets = %d", len(udp))
	}
	listeners, established := 0, 0
	for _, sk := range tcp {
		if sk.State == netstack.TCPListen {
			listeners++
		} else {
			established++
		}
	}
	if listeners != 1 || established != 0 {
		t.Fatalf("tcp fds after failover: %d listeners, %d established", listeners, established)
	}
	// Service ports answer on the standby: a client datagram arrives.
	ext := c.NewExternalHost("probe")
	extAddr, _ := ext.SourceAddrFor(c.ClusterIP)
	uc := netstack.NewUDPSocket(ext)
	uc.BindEphemeral(extAddr)
	uc.SendTo(c.ClusterIP, 4242, []byte("alive?"))
	c.Sched.RunFor(time.Second)
	if udp[0].QueueLen() == 0 && udp[0].PacketsIn == 0 {
		t.Fatal("restored UDP port unreachable")
	}
	// A second activation must fail (image consumed).
	if _, err := sb.Activate("counter_svc"); err == nil {
		t.Fatal("image re-activated twice")
	}
}

func TestStandbyKeepsNewestImage(t *testing.T) {
	c, _, _, sb := failoverSetup(t)
	c.Sched.RunFor(2 * time.Second)
	first := sb.Stored
	c.Sched.RunFor(2 * time.Second)
	if sb.Stored <= first {
		t.Fatal("standby stopped accepting newer images")
	}
}

func TestBehaviorRegistryBounded(t *testing.T) {
	// Every checkpoint registers a behavior token; before the retention
	// fix the standby kept only the newest image but never released the
	// superseded tokens, so the registry grew without bound.
	c, _, g, sb := failoverSetup(t)
	c.Sched.RunFor(2 * time.Second)
	base := c.Sched.Stashed()
	c.Sched.RunFor(20 * time.Second) // ~40 more checkpoints
	if g.Sent < 20 {
		t.Fatalf("guardian only sent %d checkpoints", g.Sent)
	}
	if grown := c.Sched.Stashed() - base; grown > 1 {
		t.Fatalf("behavior registry grew by %d entries across %d checkpoints", grown, g.Sent)
	}
	if sb.NumImages() != 1 {
		t.Fatalf("images = %d, want 1 (newest per name)", sb.NumImages())
	}
}

func TestStandbyRetentionBound(t *testing.T) {
	c := proc.NewCluster(simtime.NewScheduler(), 1)
	sb, err := NewStandby(c.Nodes[0])
	if err != nil {
		t.Fatal(err)
	}
	sb.MaxImages = 3
	var tokens []uint64
	for i := 0; i < 5; i++ {
		tok := registerBehavior(c.Sched, &ckpt.Behavior{})
		tokens = append(tokens, tok)
		sb.offer(fmt.Sprintf("svc%d", i), tok, 1, 0, obs.TraceContext{}, 0, []byte("img"))
		c.Sched.RunFor(time.Millisecond) // distinct receive times
	}
	if sb.NumImages() != 3 {
		t.Fatalf("images = %d, want 3", sb.NumImages())
	}
	if sb.Evicted != 2 {
		t.Fatalf("Evicted = %d, want 2", sb.Evicted)
	}
	// Stalest receive times evicted first, their tokens released.
	if sb.Have("svc0") || sb.Have("svc1") {
		t.Fatal("stalest images not evicted")
	}
	if !sb.Have("svc2") || !sb.Have("svc3") || !sb.Have("svc4") {
		t.Fatal("fresh images evicted")
	}
	if n := c.Sched.Stashed(); n != 3 {
		t.Fatalf("%d behavior tokens outstanding, want 3: evicted images leaked theirs", n)
	}
	for _, tok := range tokens[2:] {
		if takeBehavior(c.Sched, tok) == nil {
			t.Fatal("a retained image's token was released")
		}
	}
}

func TestStandbyEpochPrecedence(t *testing.T) {
	c := proc.NewCluster(simtime.NewScheduler(), 1)
	sb, err := NewStandby(c.Nodes[0])
	if err != nil {
		t.Fatal(err)
	}
	t1 := registerBehavior(c.Sched, &ckpt.Behavior{})
	sb.offer("svc", t1, 9, 1, obs.TraceContext{}, 7, []byte("old-owner"))
	// A new owner's guardian restarts seq at 1 but carries a higher
	// epoch: epoch precedence must let it supersede seq 9.
	t2 := registerBehavior(c.Sched, &ckpt.Behavior{})
	sb.offer("svc", t2, 1, 2, obs.TraceContext{}, 8, []byte("new-owner"))
	ep, seq, from, ok := sb.ImageInfo("svc")
	if !ok || ep != 2 || seq != 1 || from != 8 {
		t.Fatalf("ImageInfo = %d/%d/%v/%v", ep, seq, from, ok)
	}
	// A stale-epoch image is refused no matter how high its seq.
	t3 := registerBehavior(c.Sched, &ckpt.Behavior{})
	sb.offer("svc", t3, 99, 1, obs.TraceContext{}, 7, []byte("stale"))
	if sb.RejectedStale != 1 {
		t.Fatalf("RejectedStale = %d, want 1", sb.RejectedStale)
	}
	if ep, _, _, _ := sb.ImageInfo("svc"); ep != 2 {
		t.Fatal("stale image replaced the fresh one")
	}
	// Superseded and refused tokens released; the live one retained.
	if n := c.Sched.Stashed(); n != 1 {
		t.Fatalf("%d behavior tokens outstanding, want 1: superseded/refused tokens leaked", n)
	}
	if takeBehavior(c.Sched, t2) == nil {
		t.Fatal("live image's token released prematurely")
	}
}

func TestActivateUnknownName(t *testing.T) {
	c := proc.NewCluster(simtime.NewScheduler(), 1)
	sb, err := NewStandby(c.Nodes[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sb.Activate("ghost"); err == nil {
		t.Fatal("unknown activation accepted")
	}
}

var _ = simtime.JiffyPeriod
