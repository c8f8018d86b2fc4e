// Fault-injection properties of the migration engine, exercised through
// the internal/faults plane. This file lives in the external test
// package because internal/faults itself imports migration (for the
// phase-crash trigger), which would cycle with an in-package test.
package migration_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"dvemig/internal/faults"
	"dvemig/internal/migration"
	"dvemig/internal/netsim"
	"dvemig/internal/netstack"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
)

// fenv mirrors the in-package newEnv: a cluster with a migrator per
// node, a zone process on node1 serving external TCP clients, a DB
// session to the last node, plus a fault injector over the topology.
type fenv struct {
	c         *proc.Cluster
	inj       *faults.Injector
	migs      []*migration.Migrator
	p         *proc.Process
	clients   []*netstack.TCPSocket
	clientNIC *netsim.NIC
	dbPeer    *netstack.TCPSocket
	received  *bytes.Buffer

	sent    [][]byte
	tickers []*simtime.Ticker
}

func newFaultEnv(t *testing.T, nodes, nClients int, seed uint64, cfg migration.Config) *fenv {
	t.Helper()
	e := &fenv{
		c:        proc.NewCluster(simtime.NewScheduler(), nodes),
		received: &bytes.Buffer{},
	}
	e.inj = faults.NewInjector(e.c.Sched, seed)
	for _, n := range e.c.Nodes {
		m, err := migration.NewMigrator(n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.migs = append(e.migs, m)
	}
	n1 := e.c.Nodes[0]
	e.p = n1.Spawn("zone_serv", 2)
	heap := e.p.AS.Mmap(128*proc.PageSize, "rw-")
	for i := uint64(0); i < 128; i += 4 {
		e.p.AS.Write(heap.Start+i*proc.PageSize, []byte{byte(i), 0xEE})
	}

	lst := netstack.NewTCPSocket(n1.Stack)
	if err := lst.Listen(e.c.ClusterIP, 7777); err != nil {
		t.Fatal(err)
	}
	var accepted []*netstack.TCPSocket
	lst.OnAccept = func(ch *netstack.TCPSocket) { accepted = append(accepted, ch) }
	e.p.FDs.Install(&proc.TCPFile{Sock: lst})

	ext := e.c.NewExternalHost("players")
	e.clientNIC = e.c.LastExternalNIC()
	for i := 0; i < nClients; i++ {
		cli := netstack.NewTCPSocket(ext)
		if err := cli.Connect(e.c.ClusterIP, 7777); err != nil {
			t.Fatal(err)
		}
		e.clients = append(e.clients, cli)
	}
	dbNode := e.c.Nodes[nodes-1]
	dbl := netstack.NewTCPSocket(dbNode.Stack)
	if err := dbl.Listen(dbNode.LocalIP, 3306); err != nil {
		t.Fatal(err)
	}
	dbl.OnAccept = func(ch *netstack.TCPSocket) { e.dbPeer = ch }
	db := netstack.NewTCPSocket(n1.Stack)
	if err := db.Connect(dbNode.LocalIP, 3306); err != nil {
		t.Fatal(err)
	}
	e.c.Sched.RunFor(time.Second)
	if len(accepted) != nClients || e.dbPeer == nil {
		t.Fatalf("setup: accepted=%d db=%v", len(accepted), e.dbPeer)
	}
	for _, sk := range accepted {
		e.p.FDs.Install(&proc.TCPFile{Sock: sk})
	}
	e.p.FDs.Install(&proc.TCPFile{Sock: db})

	received := e.received
	counter := 0
	e.p.Tick = func(self *proc.Process) {
		counter++
		tcp, _ := self.Sockets()
		for _, sk := range tcp {
			if data := sk.Recv(); len(data) > 0 {
				received.Write(data)
			}
		}
		self.AS.Touch(heap.Start + uint64(counter%128)*proc.PageSize)
		if len(tcp) > 0 {
			_ = tcp[len(tcp)-1].Send([]byte("ping;"))
		}
	}
	e.p.CPUDemand = 0.4
	n1.StartLoop(e.p, 50*time.Millisecond)
	e.c.Sched.RunFor(200 * time.Millisecond)
	return e
}

// startStreams begins one ticker per client, each appending what it sent
// to a per-client ledger for the later audit.
func (e *fenv) startStreams(period time.Duration) {
	e.sent = make([][]byte, len(e.clients))
	for i, cli := range e.clients {
		i, cli := i, cli
		tk := simtime.NewTicker(e.c.Sched, period, "fault-cli", func() {
			msg := []byte(fmt.Sprintf("c%d.%d;", i, len(e.sent[i])))
			e.sent[i] = append(e.sent[i], msg...)
			cli.Send(msg)
		})
		tk.Start()
		e.tickers = append(e.tickers, tk)
	}
}

func (e *fenv) stopStreams() {
	for _, tk := range e.tickers {
		tk.Stop()
	}
	e.tickers = nil
}

// audit checks the byte-stream invariant: every client's bytes arrived
// at the application exactly once, in order, uncorrupted.
func (e *fenv) audit(t *testing.T, label string) {
	t.Helper()
	all := e.received.Bytes()
	for i := range e.clients {
		got := extractFenvClient(all, i)
		if !bytes.Equal(got, e.sent[i]) {
			t.Errorf("%s: client %d stream mismatch: got %d bytes, want %d",
				label, i, len(got), len(e.sent[i]))
		}
	}
}

func extractFenvClient(all []byte, i int) []byte {
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

func fenvCountRunning(c *proc.Cluster, name string) int {
	n := 0
	for _, node := range c.Nodes {
		for _, p := range node.Processes() {
			if p.Name == name && p.State == proc.ProcRunning {
				n++
			}
		}
	}
	return n
}

func fenvFindProcess(n *proc.Node, name string) *proc.Process {
	for _, p := range n.Processes() {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// TestMigrationOverLossyNetwork runs a live migration while both the
// players' access link and the in-cluster links drop packets at random
// for the whole run. TCP (fast retransmit + RTO) must carry both the
// client streams and the migd transfer itself to a correct result.
func TestMigrationOverLossyNetwork(t *testing.T) {
	e := newFaultEnv(t, 2, 4, 1, migration.DefaultConfig())
	// Loss goes on after setup so the environment builds deterministically.
	e.inj.Attach(e.clientNIC, &faults.Program{BaseLoss: 0.01})
	for _, n := range e.c.Nodes {
		e.inj.Attach(n.LocalNIC, &faults.Program{BaseLoss: 0.005})
	}
	e.startStreams(60 * time.Millisecond)
	var m *migration.Metrics
	var mErr error
	e.migs[0].Migrate(e.p, e.c.Nodes[1].LocalIP, func(mm *migration.Metrics, err error) {
		m, mErr = mm, err
	})
	e.c.Sched.RunFor(10 * time.Second)
	if m == nil || mErr != nil {
		t.Fatalf("migration under loss: metrics %v, error %v", m, mErr)
	}
	if m.FreezeTime <= 0 {
		t.Fatal("no freeze measured")
	}
	// Long drain: loss recovery may need several RTOs.
	e.c.Sched.RunFor(10 * time.Second)
	e.stopStreams()
	e.c.Sched.RunFor(20 * time.Second)
	e.audit(t, "lossy")
	if e.clientNIC.FaultDropped == 0 {
		t.Fatal("loss model inactive; test vacuous")
	}
}

// TestByteStreamInvariantUnderFaultScenarios is the end-to-end property
// of §V-C over a seed sweep: under every recoverable fault scenario —
// loss burst around the migration window, duplication, reordering, and
// a partition of the destination's cluster link during the freeze — the
// migration completes and every client stream arrives exactly once, in
// order, uncorrupted.
func TestByteStreamInvariantUnderFaultScenarios(t *testing.T) {
	type scenario struct {
		name string
		arm  func(e *fenv)
	}
	scenarios := []scenario{
		{"loss-burst", func(e *fenv) {
			now := e.c.Sched.Now()
			w := faults.Window{From: now, To: now + 3*1e9}
			e.inj.Attach(e.clientNIC, &faults.Program{Bursts: []faults.Burst{{Window: w, Rate: 0.3}}})
		}},
		{"dup", func(e *fenv) {
			e.inj.Attach(e.clientNIC, &faults.Program{DupRate: 0.05})
		}},
		{"reorder", func(e *fenv) {
			e.inj.Attach(e.clientNIC, &faults.Program{ReorderRate: 0.2, ReorderDelay: 3 * 1e6})
		}},
		{"partition-freeze", func(e *fenv) {
			// When the source announces the freeze, take the destination's
			// cluster link down for 250ms: the migd transfer must recover
			// by retransmission and still finish inside the deadline.
			prev := e.migs[0].OnPhase
			e.migs[0].OnPhase = func(ev migration.PhaseEvent) {
				if prev != nil {
					prev(ev)
				}
				if ev.Phase == migration.PhaseFreeze {
					e.inj.DownFor(e.c.Nodes[1].LocalNIC, ev.Time, ev.Time+250*1e6)
				}
			}
		}},
	}
	for _, sc := range scenarios {
		for seed := uint64(1); seed <= 2; seed++ {
			sc, seed := sc, seed
			t.Run(fmt.Sprintf("%s/seed-%d", sc.name, seed), func(t *testing.T) {
				e := newFaultEnv(t, 3, 6, seed, migration.DefaultConfig())
				e.startStreams(40 * time.Millisecond)
				e.c.Sched.RunFor(300 * time.Millisecond)
				sc.arm(e)

				done := false
				var mErr error
				e.migs[0].Migrate(e.p, e.c.Nodes[1].LocalIP, func(m *migration.Metrics, err error) {
					done, mErr = true, err
				})
				e.c.Sched.RunFor(10 * time.Second)
				if !done {
					t.Fatal("migration hung")
				}
				if mErr != nil {
					t.Fatalf("recoverable fault aborted the migration: %v", mErr)
				}
				if fenvFindProcess(e.c.Nodes[1], "zone_serv") == nil {
					t.Fatal("process not on destination")
				}
				// Let the burst window close and recovery finish, then stop
				// the streams and drain what is still in flight.
				e.c.Sched.RunFor(4 * time.Second)
				e.stopStreams()
				e.c.Sched.RunFor(10 * time.Second)
				e.audit(t, sc.name)
				if e.dbPeer.BytesIn == 0 {
					t.Fatal("db session carried nothing")
				}
			})
		}
	}
}

// TestCrashMatrix kills the destination node at each named migration
// phase. In every cell the engine must abort within the configured
// deadline (no hang), the process must keep running on the source with
// all sockets rehashed, the client byte streams must stay intact, and
// the whole cell must reproduce bit-identically under the same seed.
func TestCrashMatrix(t *testing.T) {
	cases := []struct {
		name  string
		watch int // migrator index whose OnPhase fires the trigger
		phase migration.Phase
		round int
	}{
		{"connect", 0, migration.PhaseConnect, 0},
		{"precopy-round2", 0, migration.PhasePrecopy, 2},
		{"freeze", 0, migration.PhaseFreeze, 0},
		{"transfer", 0, migration.PhaseTransfer, 0},
		{"restore", 1, migration.PhaseRestore, 0},
		{"reinject", 1, migration.PhaseReinject, 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			run := func() (reason string, recvLen int) {
				cfg := migration.DefaultConfig()
				cfg.Deadline = 6 * 1e9
				cfg.ConnTimeout = 1 * 1e9
				e := newFaultEnv(t, 3, 4, 1, cfg)
				e.startStreams(40 * time.Millisecond)
				e.c.Sched.RunFor(300 * time.Millisecond)

				dest := e.c.Nodes[1]
				faults.CrashAtPhase(e.c, e.migs[tc.watch], dest, tc.phase, tc.round)

				start := e.c.Sched.Now()
				var doneAt simtime.Time
				done := false
				var mErr error
				var metrics *migration.Metrics
				e.migs[0].Migrate(e.p, dest.LocalIP, func(m *migration.Metrics, err error) {
					done, mErr, metrics = true, err, m
					doneAt = e.c.Sched.Now()
				})
				e.c.Sched.RunFor(20 * time.Second)
				if !done {
					t.Fatal("hang: migration neither completed nor aborted")
				}
				if mErr == nil {
					t.Fatal("destination died but migration reported success")
				}
				if metrics == nil || !metrics.Aborted {
					t.Fatalf("metrics not flagged aborted: %+v", metrics)
				}
				// Aborted within the configured rescue window (deadline plus
				// slack for the abort protocol itself).
				if doneAt > start+simtime.Time(cfg.Deadline)+2*1e9 {
					t.Fatalf("abort too late: %v after start", doneAt-start)
				}
				if dest.Alive {
					t.Fatal("victim still alive; trigger never fired")
				}
				// The process survived at the source, and only there.
				if e.p.State != proc.ProcRunning {
					t.Fatalf("source process state = %v", e.p.State)
				}
				if fenvFindProcess(e.c.Nodes[0], "zone_serv") == nil {
					t.Fatal("process missing from source")
				}
				if fenvFindProcess(dest, "zone_serv") != nil {
					t.Fatal("dead destination still holds the process")
				}
				tcp, _ := e.p.Sockets()
				for _, sk := range tcp {
					if sk.Unhashed() {
						t.Fatal("socket left unhashed after thaw")
					}
				}
				// Streams keep flowing after the abort; the invariant holds.
				e.c.Sched.RunFor(2 * time.Second)
				e.stopStreams()
				e.c.Sched.RunFor(8 * time.Second)
				e.audit(t, tc.name)
				return mErr.Error(), e.received.Len()
			}
			r1, n1 := run()
			r2, n2 := run()
			if r1 != r2 || n1 != n2 {
				t.Fatalf("cell not reproducible: (%q,%d) vs (%q,%d)", r1, n1, r2, n2)
			}
		})
	}
}

// TestSourceCrashMatrix is the mirror of TestCrashMatrix: the SOURCE
// node dies at each pre-handover phase. The destination holds only a
// shadow copy at that point, and a crashed source sends no FIN — the
// inbound lease is the only thing standing between the destination and
// a leaked half-restored process. In every cell the destination must
// discard its shadow state once the lease lapses, and the cluster must
// converge to at most one owner of the service (zero here: the owner
// died before handover, and half an image must never serve).
func TestSourceCrashMatrix(t *testing.T) {
	cases := []struct {
		name  string
		phase migration.Phase
		round int
		// expectLease: whether the destination's inbound was active (a
		// migrate request had arrived) and so must expire a lease. A
		// crash at connect kills the source before the request is sent.
		expectLease bool
	}{
		{"connect", migration.PhaseConnect, 0, false},
		{"precopy-round2", migration.PhasePrecopy, 2, true},
		{"freeze", migration.PhaseFreeze, 0, true},
		{"transfer", migration.PhaseTransfer, 0, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			run := func() (leases uint64, recvLen int) {
				cfg := migration.DefaultConfig()
				cfg.Deadline = 6 * 1e9
				cfg.ConnTimeout = 1 * 1e9
				cfg.InboundLease = 3 * 1e9
				e := newFaultEnv(t, 3, 4, 1, cfg)
				e.startStreams(40 * time.Millisecond)
				e.c.Sched.RunFor(300 * time.Millisecond)

				src := e.c.Nodes[0]
				dest := e.c.Nodes[1]
				faults.CrashAtPhase(e.c, e.migs[0], src, tc.phase, tc.round)

				e.migs[0].Migrate(e.p, dest.LocalIP, func(m *migration.Metrics, err error) {
					// The source dies mid-flight; whether its callback
					// still manages to fire is not part of the contract.
				})
				// Long enough for the lease (3s) plus restore slack.
				e.c.Sched.RunFor(15 * time.Second)
				e.stopStreams()
				e.c.Sched.RunFor(2 * time.Second)

				if src.Alive {
					t.Fatal("victim still alive; trigger never fired")
				}
				if got := e.migs[1].LeaseExpired; tc.expectLease && got == 0 {
					t.Fatal("destination never expired the source lease")
				} else if !tc.expectLease && got != 0 {
					t.Fatalf("lease expired %d times before a request arrived", got)
				}
				// Nothing half-restored leaks: the destination holds no
				// process of the service, running or otherwise.
				if fenvFindProcess(dest, "zone_serv") != nil {
					t.Fatal("destination leaked a half-restored process")
				}
				// Convergence to ≤1 owner — zero, since the owner died
				// before the image was handed over.
				if n := fenvCountRunning(e.c, "zone_serv"); n != 0 {
					t.Fatalf("%d running owners after source crash", n)
				}
				return e.migs[1].LeaseExpired, e.received.Len()
			}
			l1, n1 := run()
			l2, n2 := run()
			if l1 != l2 || n1 != n2 {
				t.Fatalf("cell not reproducible: (%d,%d) vs (%d,%d)", l1, n1, l2, n2)
			}
		})
	}
}
