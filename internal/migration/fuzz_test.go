package migration

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"dvemig/internal/netsim"
	"dvemig/internal/netstack"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
	"dvemig/internal/sockmig"
)

// TestMigrationFuzzStreamIntegrity is the randomized end-to-end property:
// under random client traffic and randomly timed chained migrations
// across three nodes, every client's byte stream arrives exactly once,
// in order, with no corruption — for every strategy.
func TestMigrationFuzzStreamIntegrity(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			strat := sockmig.Strategy(seed % 3)
			cfg := DefaultConfig()
			cfg.Strategy = strat
			e := newEnv(t, 3, 6, cfg)
			rnd := simtime.NewRand(seed)

			// Random traffic: each client sends random-size messages at
			// random intervals.
			var sent [6][]byte
			var tickers []*simtime.Ticker
			for i, cli := range e.clients {
				i, cli := i, cli
				period := time.Duration(10+rnd.Intn(60)) * time.Millisecond
				tk := simtime.NewTicker(e.c.Sched, period, "fuzz-cli", func() {
					n := 1 + rnd.Intn(600)
					msg := []byte(fmt.Sprintf("c%d.%d|", i, len(sent[i])))
					for len(msg) < n {
						msg = append(msg, byte('a'+len(msg)%26))
					}
					msg = append(msg, ';')
					sent[i] = append(sent[i], msg...)
					_ = cli.Send(msg)
				})
				tk.Start()
				tickers = append(tickers, tk)
			}

			// Chain of migrations after random delays: node1→node2→node3.
			hops := []int{1, 2}
			var scheduleHop func(hopIdx, fromIdx int, delay simtime.Duration)
			scheduleHop = func(hopIdx, fromIdx int, delay simtime.Duration) {
				if hopIdx >= len(hops) {
					return
				}
				to := hops[hopIdx]
				e.c.Sched.After(delay, "fuzz-migrate", func() {
					p := findProcess(e.c.Nodes[fromIdx], "zone_serv1")
					if p == nil {
						t.Errorf("hop %d: process not found on node%d", hopIdx, fromIdx+1)
						return
					}
					e.migrators[fromIdx].Migrate(p, e.c.Nodes[to].LocalIP, func(m *Metrics, err error) {
						if err != nil {
							t.Errorf("hop %d failed: %v", hopIdx, err)
							return
						}
						scheduleHop(hopIdx+1, to, simtime.Duration(300+rnd.Intn(1200))*1e6)
					})
				})
			}
			scheduleHop(0, 0, simtime.Duration(500+rnd.Intn(1500))*1e6)

			e.c.Sched.RunFor(12 * time.Second)
			for _, tk := range tickers {
				tk.Stop()
			}
			e.c.Sched.RunFor(3 * time.Second)

			if findProcess(e.c.Nodes[2], "zone_serv1") == nil {
				t.Fatal("process did not reach node3")
			}
			all := e.received.Bytes()
			for i := range e.clients {
				got := extractFuzzClient(all, i)
				if !bytes.Equal(got, sent[i]) {
					t.Fatalf("seed %d strategy %v client %d: stream mismatch (%d vs %d bytes)",
						seed, strat, i, len(got), len(sent[i]))
				}
			}
			// The DB session survived both hops.
			if got := e.dbPeer.Recv(); !bytes.Contains(got, []byte("ping;")) && e.dbPeer.BytesIn == 0 {
				t.Fatal("db session dead after chained migrations")
			}
		})
	}
}

// extractFuzzClient pulls client i's tokens ("c<i>.<off>|padding;") from
// the interleaved stream in order.
func extractFuzzClient(all []byte, i int) []byte {
	var out []byte
	prefix := []byte(fmt.Sprintf("c%d.", i))
	for _, tok := range bytes.Split(all, []byte(";")) {
		if bytes.HasPrefix(tok, prefix) {
			out = append(out, tok...)
			out = append(out, ';')
		}
	}
	return out
}

// TestConcurrentOppositeMigrations runs two migrations at once in
// opposite directions between the same pair of nodes; both must succeed
// and both processes keep their connections.
func TestConcurrentOppositeMigrations(t *testing.T) {
	cfg := DefaultConfig()
	e := newEnv(t, 2, 4, cfg) // zone_serv1 on node1 with clients

	// A second server on node2 with its own client.
	p2 := e.c.Nodes[1].Spawn("zone_serv2", 1)
	lst := netstack.NewTCPSocket(e.c.Nodes[1].Stack)
	if err := lst.Listen(e.c.ClusterIP, 7878); err != nil {
		t.Fatal(err)
	}
	var accepted2 int
	lst.OnAccept = func(ch *netstack.TCPSocket) {
		accepted2++
		p2.FDs.Install(&proc.TCPFile{Sock: ch})
	}
	p2.FDs.Install(&proc.TCPFile{Sock: lst})
	ext := e.c.NewExternalHost("p2cli")
	cli2 := netstack.NewTCPSocket(ext)
	if err := cli2.Connect(e.c.ClusterIP, 7878); err != nil {
		t.Fatal(err)
	}
	e.c.Sched.RunFor(time.Second)
	if accepted2 != 1 {
		t.Fatal("second server has no client")
	}
	var got2 []byte
	p2.Tick = func(self *proc.Process) {
		tcp, _ := self.Sockets()
		for _, sk := range tcp {
			got2 = append(got2, sk.Recv()...)
		}
	}
	e.c.Nodes[1].StartLoop(p2, 50*time.Millisecond)

	done1, done2 := false, false
	var err1, err2 error
	e.migrators[0].Migrate(e.p, e.c.Nodes[1].LocalIP, func(m *Metrics, err error) { done1, err1 = true, err })
	e.migrators[1].Migrate(p2, e.c.Nodes[0].LocalIP, func(m *Metrics, err error) { done2, err2 = true, err })
	e.c.Sched.RunFor(10 * time.Second)
	if !done1 || !done2 {
		t.Fatalf("concurrent migrations incomplete: %v %v", done1, done2)
	}
	if err1 != nil || err2 != nil {
		t.Fatalf("concurrent migrations failed: %v / %v", err1, err2)
	}
	if findProcess(e.c.Nodes[1], "zone_serv1") == nil || findProcess(e.c.Nodes[0], "zone_serv2") == nil {
		t.Fatal("processes did not swap nodes")
	}
	// Both still receive.
	cli2.Send([]byte("post-swap"))
	e.clients[0].Send([]byte("post-swap-too"))
	e.c.Sched.RunFor(time.Second)
	if !bytes.Contains(got2, []byte("post-swap")) {
		t.Fatal("swapped server 2 deaf")
	}
	if !bytes.Contains(e.received.Bytes(), []byte("post-swap-too")) {
		t.Fatal("swapped server 1 deaf")
	}
}

// bothEnds is a connection between two zone-server-like processes:
// zoneA on node1 connected to zoneB on node2, each sending a byte per
// 50 ms tick, on a four-node cluster where every node runs a migrator.
type bothEnds struct {
	c          *proc.Cluster
	migs       []*Migrator
	pa, pb     *proc.Process
	aGot, bGot []byte
}

func newBothEnds(t *testing.T) *bothEnds {
	t.Helper()
	w := &bothEnds{c: proc.NewCluster(simtime.NewScheduler(), 4)}
	c := w.c
	for _, n := range c.Nodes {
		m, err := NewMigrator(n, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		w.migs = append(w.migs, m)
	}
	w.pa = c.Nodes[0].Spawn("zoneA", 1)
	w.pb = c.Nodes[1].Spawn("zoneB", 1)
	lst := netstack.NewTCPSocket(c.Nodes[1].Stack)
	if err := lst.Listen(c.Nodes[1].LocalIP, 21000); err != nil {
		t.Fatal(err)
	}
	var bSide *netstack.TCPSocket
	lst.OnAccept = func(ch *netstack.TCPSocket) { bSide = ch }
	w.pb.FDs.Install(&proc.TCPFile{Sock: lst})
	aSide := netstack.NewTCPSocket(c.Nodes[0].Stack)
	if err := aSide.Connect(c.Nodes[1].LocalIP, 21000); err != nil {
		t.Fatal(err)
	}
	w.pa.FDs.Install(&proc.TCPFile{Sock: aSide})
	c.Sched.RunFor(time.Second)
	if bSide == nil {
		t.Fatal("setup: no connection")
	}
	w.pb.FDs.Install(&proc.TCPFile{Sock: bSide})
	tick := func(got *[]byte, msg string) func(*proc.Process) {
		return func(self *proc.Process) {
			tcp, _ := self.Sockets()
			for _, sk := range tcp {
				*got = append(*got, sk.Recv()...)
				if sk.State == netstack.TCPEstablished {
					_ = sk.Send([]byte(msg))
				}
			}
		}
	}
	w.pa.Tick = tick(&w.aGot, "a")
	w.pb.Tick = tick(&w.bGot, "b")
	c.Nodes[0].StartLoop(w.pa, 50*time.Millisecond)
	c.Nodes[1].StartLoop(w.pb, 50*time.Millisecond)
	c.Sched.RunFor(500 * time.Millisecond)
	return w
}

// migrate moves p from node mi to node to and returns it there with the
// migration's metrics.
func (w *bothEnds) migrate(t *testing.T, mi int, p *proc.Process, to int) (*proc.Process, *Metrics) {
	t.Helper()
	var done *Metrics
	var mErr error
	w.migs[mi].Migrate(p, w.c.Nodes[to].LocalIP, func(m *Metrics, err error) { done, mErr = m, err })
	w.c.Sched.RunFor(5 * time.Second)
	if done == nil || mErr != nil {
		t.Fatalf("migration failed: done=%v err=%v", done != nil, mErr)
	}
	moved := findProcess(w.c.Nodes[to], p.Name)
	if moved == nil {
		t.Fatalf("%s not on node%d", p.Name, to+1)
	}
	return moved, done
}

// TestBothEndsMigration exercises the paper's named future work: a
// connection between two zone-server-like processes where BOTH endpoints
// migrate, one after the other. The translation rules must follow each
// move (peer resolution through the local table, rule replication onto
// the destination, stale-rule cleanup).
func TestBothEndsMigration(t *testing.T) {
	w := newBothEnds(t)
	// Hop 1: A moves node1 → node3.
	w.pa, _ = w.migrate(t, 0, w.pa, 2)
	beforeA, beforeB := len(w.aGot), len(w.bGot)
	w.c.Sched.RunFor(time.Second)
	if len(w.aGot) <= beforeA || len(w.bGot) <= beforeB {
		t.Fatal("traffic stalled after A's move")
	}

	// Hop 2: B moves node2 → node4 — the peer (A) already migrated, so
	// the source must resolve A's current home through its own
	// translation table and replicate its rule to node4.
	w.pb, _ = w.migrate(t, 1, w.pb, 3)
	beforeA, beforeB = len(w.aGot), len(w.bGot)
	w.c.Sched.RunFor(2 * time.Second)
	if len(w.aGot) <= beforeA {
		t.Fatalf("A receives nothing after B's move (%d)", len(w.aGot)-beforeA)
	}
	if len(w.bGot) <= beforeB {
		t.Fatalf("B receives nothing after B's move (%d)", len(w.bGot)-beforeB)
	}
	// Stale rules cleaned up: node2 (B's old host) holds none.
	if n := len(w.migs[1].Transd.Translator().Rules()); n != 0 {
		t.Fatalf("stale rules on node2: %d", n)
	}
	// Node3 (A's host) translates toward node4; node4 (B's host)
	// translates toward node3.
	if n := len(w.migs[2].Transd.Translator().Rules()); n != 1 {
		t.Fatalf("rules on node3 = %d, want 1", n)
	}
	if n := len(w.migs[3].Transd.Translator().Rules()); n != 1 {
		t.Fatalf("rules on node4 = %d, want 1", n)
	}
}

// TestBothEndsFreezeCapturesPeerSegments: while B moves node2 → node4, a
// segment A sends from node3 is redirected to node4 by node3's rule and
// arrives from A's current address, while B's socket — and so node4's
// capture filter — names A by its original one. Node4 must translate
// before it captures, or the segment misses the filter, dies for want of
// a socket and A waits out a retransmission timeout. A sends once the
// socket transfer starts: earlier in the freeze, node3 still routes to
// node2, where B's socket is still hashed.
func TestBothEndsFreezeCapturesPeerSegments(t *testing.T) {
	w := newBothEnds(t)
	w.pa, _ = w.migrate(t, 0, w.pa, 2)
	w.c.Sched.RunFor(time.Second)

	node3 := w.c.Nodes[2].Stack
	var retransmits uint64
	sent := false
	w.migs[1].OnPhase = func(ev PhaseEvent) {
		if ev.Phase != PhaseTransfer || sent {
			return
		}
		sent = true
		retransmits = node3.Stats.Retransmits
		tcp, _ := w.pa.Sockets()
		if err := tcp[0].Send([]byte("in the freeze")); err != nil {
			t.Fatal(err)
		}
	}
	var m *Metrics
	w.pb, m = w.migrate(t, 1, w.pb, 3)
	if !sent {
		t.Fatal("B's migration never reached the socket transfer")
	}
	if m.Captured == 0 || m.Reinjected == 0 {
		t.Fatalf("node4 captured %d and reinjected %d packets, want A's segment among them", m.Captured, m.Reinjected)
	}
	if got := node3.Stats.Retransmits - retransmits; got != 0 {
		t.Fatalf("node3 retransmitted %d times: A's segment was lost in B's freeze", got)
	}
	if !bytes.Contains(w.bGot, []byte("in the freeze")) {
		t.Fatal("B never read A's segment")
	}
}

// TestDestinationDiesMidMigration kills the destination node during the
// precopy phase: the migration must abort by deadline, and the process
// must thaw at the source with all its sockets rehashed and serving.
func TestDestinationDiesMidMigration(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Deadline = 10 * 1e9
	e := newEnv(t, 2, 4, cfg)
	var gotErr error
	done := false
	e.migrators[0].Migrate(e.p, e.c.Nodes[1].LocalIP, func(m *Metrics, err error) {
		gotErr, done = err, true
	})
	// Kill node2 a moment into the migration (mid-precopy).
	e.c.Sched.After(200*time.Millisecond, "kill", func() {
		e.c.Nodes[1].Fail(e.c)
	})
	e.c.Sched.RunFor(30 * time.Second)
	if !done || gotErr == nil {
		t.Fatalf("migration did not abort: done=%v err=%v", done, gotErr)
	}
	if e.p.State != proc.ProcRunning {
		t.Fatalf("process state after abort = %v", e.p.State)
	}
	// The process still serves its clients from the source.
	before := e.received.Len()
	e.clients[0].Send([]byte("still-here"))
	e.c.Sched.RunFor(2 * time.Second)
	if e.received.Len() <= before {
		t.Fatal("process deaf after aborted migration")
	}
	tcp, _ := e.p.Sockets()
	for _, sk := range tcp {
		if sk.Unhashed() {
			t.Fatal("socket left unhashed after thaw")
		}
	}
}

// TestDestinationDiesDuringFreeze kills the destination after the freeze
// started; the deadline must still rescue the process.
func TestDestinationDiesDuringFreeze(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Deadline = 5 * 1e9
	cfg.InitialTimeout = 100 * 1e6 // freeze quickly
	e := newEnv(t, 2, 2, cfg)
	var gotErr error
	done := false
	e.migrators[0].Migrate(e.p, e.c.Nodes[1].LocalIP, func(m *Metrics, err error) {
		gotErr, done = err, true
	})
	// Kill the destination the instant the freeze begins.
	killed := false
	watch := simtime.NewTicker(e.c.Sched, 100*time.Microsecond, "watch", func() {
		if !killed && e.p.State == proc.ProcFrozen {
			killed = true
			e.c.Nodes[1].Fail(e.c)
		}
	})
	watch.Start()
	defer watch.Stop()
	e.c.Sched.RunFor(30 * time.Second)
	if !done || gotErr == nil {
		t.Fatalf("migration did not abort: done=%v err=%v", done, gotErr)
	}
	if e.p.State != proc.ProcRunning {
		t.Fatal("process not thawed")
	}
	before := e.received.Len()
	e.clients[0].Send([]byte("alive"))
	e.c.Sched.RunFor(3 * time.Second)
	if e.received.Len() <= before {
		t.Fatal("process dead after freeze abort")
	}
}

// TestFreezeWithThreadInSyscall: a thread blocked in a socket system call
// when the freeze signal arrives must abandon the call (emptying backlog
// and prequeue) so the three-queue socket dump stays sufficient (§V-C1).
func TestFreezeWithThreadInSyscall(t *testing.T) {
	cfg := DefaultConfig()
	e := newEnv(t, 2, 4, cfg)
	tcp, _ := e.p.Sockets()
	// One thread locks a socket (syscall), another waits in recv.
	e.p.Threads[0].EnterSyscall(tcp[1], false)
	e.p.Threads[1].EnterSyscall(tcp[2], true)
	// Traffic arrives on the locked socket: it lands on the backlog.
	e.clients[0].Send([]byte("locked-data"))
	e.c.Sched.RunFor(100 * time.Millisecond)
	if tcp[1].BacklogLen() == 0 {
		t.Fatal("setup: no backlog accumulated")
	}
	m := e.migrate(t, 1)
	if m.FreezeTime <= 0 {
		t.Fatal("no migration")
	}
	// The data that sat on the backlog was processed when the signal
	// released the lock, migrated inside the regular queues, and reached
	// the application on the destination.
	e.c.Sched.RunFor(2 * time.Second)
	if !bytes.Contains(e.received.Bytes(), []byte("locked-data")) {
		t.Fatal("backlog data lost across freeze")
	}
	q := findProcess(e.c.Nodes[1], "zone_serv1")
	qtcp, _ := q.Sockets()
	for _, sk := range qtcp {
		if sk.BacklogLen() != 0 || sk.PrequeueBusy() {
			t.Fatal("restored socket has backlog/prequeue content")
		}
	}
}

// TestOOOQueueMigrates engineers an out-of-order queue at freeze time:
// a missing middle segment leaves later segments parked in the OOO queue,
// which must migrate and complete once the hole is retransmitted into the
// destination.
func TestOOOQueueMigrates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InitialTimeout = 100 * 1e6 // fast precopy
	e := newEnv(t, 2, 1, cfg)
	cli := e.clients[0]
	// Lose the first data segment on its way into node1 so followers go
	// out of order; the client's RTO will resupply it later.
	var lost bool
	pub := e.c.Nodes[0].PublicNIC
	pub.SetFault(rxLoss(func(pk *netsim.Packet) bool {
		lose := !lost && pk.Proto == netsim.ProtoTCP && len(pk.Payload) > 0 && pk.DstPort == 7777
		lost = lost || lose
		return lose
	}))
	cli.Send(bytes.Repeat([]byte("A"), netstack.DefaultMSS)) // dropped
	cli.Send(bytes.Repeat([]byte("B"), 100))                 // lands in OOO
	e.c.Sched.RunFor(20 * time.Millisecond)
	// Confirm OOO content exists on the server side pre-migration.
	srvTCP, _ := e.p.Sockets()
	oooFound := false
	for _, sk := range srvTCP {
		if len(sk.OOOQueue()) > 0 {
			oooFound = true
		}
	}
	if !oooFound {
		t.Fatal("setup: no out-of-order state")
	}
	pub.SetFault(nil)
	m := e.migrate(t, 1) // RTO (200ms+) fires after freeze; hole fills at node2
	_ = m
	e.c.Sched.RunFor(5 * time.Second)
	want := append(bytes.Repeat([]byte("A"), netstack.DefaultMSS), bytes.Repeat([]byte("B"), 100)...)
	if !bytes.Contains(e.received.Bytes(), want) {
		t.Fatal("ooo-held data did not complete after migration")
	}
}

// rxLoss is a test fault program: the link drops the ingress packets it
// picks.
type rxLoss func(p *netsim.Packet) bool

func (f rxLoss) Apply(_ simtime.Time, dir string, p *netsim.Packet) netsim.FaultAction {
	return netsim.FaultAction{Drop: dir == "rx" && f(p)}
}

// TestConcurrentInboundMigrations sends two processes from two sources to
// the SAME destination at once: the destination must handle both inbound
// streams independently.
func TestConcurrentInboundMigrations(t *testing.T) {
	cfg := DefaultConfig()
	c := proc.NewCluster(simtime.NewScheduler(), 3)
	var migs []*Migrator
	for _, n := range c.Nodes {
		m, err := NewMigrator(n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		migs = append(migs, m)
	}
	mk := func(node int, name string) *proc.Process {
		p := c.Nodes[node].Spawn(name, 1)
		v := p.AS.Mmap(64*proc.PageSize, "rw-")
		for i := uint64(0); i < 64; i += 2 {
			p.AS.Write(v.Start+i*proc.PageSize, []byte{byte(i)})
		}
		ticks := 0
		p.Tick = func(self *proc.Process) {
			ticks++
			_ = self.AS.Touch(v.Start + uint64(ticks%64)*proc.PageSize)
		}
		c.Nodes[node].StartLoop(p, 50*time.Millisecond)
		return p
	}
	pa := mk(0, "svcA")
	pb := mk(1, "svcB")
	c.Sched.RunFor(time.Second)
	var doneA, doneB bool
	var errA, errB error
	migs[0].Migrate(pa, c.Nodes[2].LocalIP, func(m *Metrics, err error) { doneA, errA = true, err })
	migs[1].Migrate(pb, c.Nodes[2].LocalIP, func(m *Metrics, err error) { doneB, errB = true, err })
	c.Sched.RunFor(15 * time.Second)
	if !doneA || !doneB || errA != nil || errB != nil {
		t.Fatalf("concurrent inbound: A(%v,%v) B(%v,%v)", doneA, errA, doneB, errB)
	}
	if findProcess(c.Nodes[2], "svcA") == nil || findProcess(c.Nodes[2], "svcB") == nil {
		t.Fatal("both processes should be on node3")
	}
	if c.Nodes[2].NumProcesses() != 2 {
		t.Fatalf("node3 has %d processes", c.Nodes[2].NumProcesses())
	}
}

// TestMigdSurvivesGarbageConnection: random bytes thrown at the migd port
// must not disturb a concurrent legitimate migration.
func TestMigdSurvivesGarbageConnection(t *testing.T) {
	cfg := DefaultConfig()
	e := newEnv(t, 2, 2, cfg)
	// Garbage client against node2's migd from node1's stack.
	junk := netstack.NewTCPSocket(e.c.Nodes[0].Stack)
	if err := junk.Connect(e.c.Nodes[1].LocalIP, MigdPort); err != nil {
		t.Fatal(err)
	}
	e.c.Sched.RunFor(200 * time.Millisecond)
	junk.Send([]byte{0xFF, 0x00, 0x00, 0x00, 0x08, 1, 2, 3, 4, 5, 6, 7, 8}) // unknown type
	junk.Send([]byte{byte(MsgMigrateReq), 0x00, 0x00, 0x00, 0x02, 9, 9})    // short payload
	e.c.Sched.RunFor(200 * time.Millisecond)
	// A real migration still works.
	m := e.migrate(t, 1)
	if m.FreezeTime <= 0 {
		t.Fatal("legitimate migration failed alongside garbage peer")
	}
}

// TestMigratorStopRefusesInbound: after Stop, new migrations to the node
// fail cleanly and the source process keeps running.
func TestMigratorStopRefusesInbound(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Deadline = 8e9
	e := newEnv(t, 2, 2, cfg)
	e.migrators[1].Stop()
	var done bool
	var gotErr error
	e.migrators[0].Migrate(e.p, e.c.Nodes[1].LocalIP, func(m *Metrics, err error) { done, gotErr = true, err })
	e.c.Sched.RunFor(30 * time.Second)
	if !done || gotErr == nil {
		t.Fatalf("migration to stopped migd should fail: done=%v err=%v", done, gotErr)
	}
	if e.p.State != proc.ProcRunning {
		t.Fatal("process not left running")
	}
}
