package eval

import (
	"fmt"
	"slices"
	"strings"

	"dvemig/internal/faults"
	"dvemig/internal/migration"
	"dvemig/internal/netsim"
	"dvemig/internal/netstack"
	"dvemig/internal/obs"
	"dvemig/internal/proc"
	"dvemig/internal/simprof"
	"dvemig/internal/simtime"
	"dvemig/internal/xlat"
)

// ChaosEnv is the environment a scenario's Arm hook gets to sabotage:
// a three-node cluster (source, destination, DB) with migrators on the
// first two nodes, external clients streaming against a zone process on
// the source, and a fault injector seeded for the run.
type ChaosEnv struct {
	Sched     *simtime.Scheduler
	Cluster   *proc.Cluster
	Inj       *faults.Injector
	Source    *proc.Node
	Dest      *proc.Node
	DB        *proc.Node
	SrcMig    *migration.Migrator
	DstMig    *migration.Migrator
	ClientNIC *netsim.NIC // the external players' access link
	// MigrateAt is when the harness will initiate the migration.
	MigrateAt simtime.Time
}

// ChaosScenario is one named fault script. Arm runs after the healthy
// environment is built (connections established) and before the
// migration is initiated.
type ChaosScenario struct {
	Name string
	Arm  func(env *ChaosEnv)
}

// chaosClients is the number of external TCP connections a cell streams to.
const chaosClients = 8

// ChaosConfig parameterizes a sweep.
type ChaosConfig struct {
	Scenarios []ChaosScenario
	Seeds     []uint64
	MigCfg    migration.Config
	// Workers bounds the sweep's parallelism: (scenario, seed) cells fan
	// out over up to Workers goroutines (<= 0 selects GOMAXPROCS, 1 is
	// the serial path). The report is bit-identical at every worker
	// count; see RunParallel.
	Workers int
	// Observe attaches a per-cell observability plane (spans + metrics)
	// to every run; each ChaosResult then carries its Obs capture. The
	// plane records only virtual time and never schedules events, so
	// packet timing is unchanged and the captures are bit-identical at
	// any worker count. The trace hash is not: MIGRATE_REQ carries the
	// trace context as bytes.
	Observe bool
	// Prof, when non-nil, attaches the wall-clock self-profiling plane:
	// per-cell event-loop attribution, per-phase migration skew, and the
	// sweep's worker-occupancy record. It only reads the host clock —
	// every sim artifact stays byte-identical with or without it.
	Prof *simprof.Profiler
}

// DefaultChaosConfig covers the ISSUE's scenario list: loss burst,
// duplication, reordering, delay jitter, lossy in-cluster links, a
// partition during freeze, and a destination crash during freeze.
func DefaultChaosConfig() ChaosConfig {
	cfg := migration.DefaultConfig()
	// Resolve aborts well inside the run window.
	cfg.Deadline = 4 * 1e9
	cfg.ConnTimeout = 1 * 1e9
	cfg.ConnRetries = 2
	cfg.Mig = migration.Precopy()
	return ChaosConfig{
		Scenarios: DefaultChaosScenarios(),
		Seeds:     []uint64{1, 2, 3},
		MigCfg:    cfg,
	}
}

// DefaultChaosScenarios is the standard scenario battery.
func DefaultChaosScenarios() []ChaosScenario {
	return []ChaosScenario{
		{Name: "healthy", Arm: func(*ChaosEnv) {}},
		{Name: "loss-burst", Arm: func(e *ChaosEnv) {
			// 30% loss on the public path for 2.5s spanning the
			// migration window, both directions of the access link.
			w := faults.Window{From: e.MigrateAt - 500*1e6, To: e.MigrateAt + 2000*1e6}
			e.Inj.Attach(e.ClientNIC, &faults.Program{Bursts: []faults.Burst{{Window: w, Rate: 0.3}}})
			e.Inj.Attach(e.Source.PublicNIC, &faults.Program{Bursts: []faults.Burst{{Window: w, Rate: 0.3}}})
			e.Inj.Attach(e.Dest.PublicNIC, &faults.Program{Bursts: []faults.Burst{{Window: w, Rate: 0.3}}})
		}},
		{Name: "dup", Arm: func(e *ChaosEnv) {
			e.Inj.Attach(e.ClientNIC, &faults.Program{DupRate: 0.05})
			e.Inj.Attach(e.Source.PublicNIC, &faults.Program{DupRate: 0.05})
			e.Inj.Attach(e.Dest.PublicNIC, &faults.Program{DupRate: 0.05})
		}},
		{Name: "reorder", Arm: func(e *ChaosEnv) {
			e.Inj.Attach(e.ClientNIC, &faults.Program{ReorderRate: 0.2, ReorderDelay: 3 * 1e6})
			e.Inj.Attach(e.Source.PublicNIC, &faults.Program{ReorderRate: 0.2, ReorderDelay: 3 * 1e6})
			e.Inj.Attach(e.Dest.PublicNIC, &faults.Program{ReorderRate: 0.2, ReorderDelay: 3 * 1e6})
		}},
		{Name: "jitter", Arm: func(e *ChaosEnv) {
			e.Inj.Attach(e.ClientNIC, &faults.Program{JitterMax: 2 * 1e6})
			e.Inj.Attach(e.Source.PublicNIC, &faults.Program{JitterMax: 2 * 1e6})
		}},
		{Name: "lossy-cluster", Arm: func(e *ChaosEnv) {
			// 5% random loss on the in-cluster links the migd protocol,
			// the DB session and the translation daemons run over.
			e.Inj.Attach(e.Source.LocalNIC, &faults.Program{BaseLoss: 0.05})
			e.Inj.Attach(e.Dest.LocalNIC, &faults.Program{BaseLoss: 0.05})
		}},
		{Name: "partition-freeze", Arm: func(e *ChaosEnv) {
			// When the source enters the freeze phase, the destination's
			// in-cluster link goes dark for 250ms: the freeze transfer
			// stalls mid-flight and must recover by retransmission.
			prev := e.SrcMig.OnPhase
			e.SrcMig.OnPhase = func(ev migration.PhaseEvent) {
				if prev != nil {
					prev(ev)
				}
				if ev.Phase == migration.PhaseFreeze {
					e.Inj.DownFor(e.Dest.LocalNIC, ev.Time, ev.Time+250*1e6)
				}
			}
		}},
		{Name: "crash-freeze", Arm: func(e *ChaosEnv) {
			faults.CrashAtPhase(e.Cluster, e.SrcMig, e.Dest, migration.PhaseFreeze, 0)
		}},
	}
}

// ChaosResult is the outcome of one (scenario, seed) cell.
type ChaosResult struct {
	// Strategy names the memory-movement strategy the cell migrated
	// with (the strategy race's extra axis).
	Strategy string
	Scenario string
	Seed     uint64
	// Survived: the process is running (on either node) at the end.
	Survived bool
	// Completed/Aborted report the migration outcome; AbortReason the
	// error if aborted.
	Completed   bool
	Aborted     bool
	AbortReason string
	// Violations lists byte-stream invariant breaches (empty = the
	// paper's no-loss/no-dup/no-reorder claim held under this fault).
	Violations []string
	// ClientRetransmits sums TCP retransmissions over all clients (a
	// liveness cost indicator, not a violation).
	ClientRetransmits uint64
	// TraceHash is the cell's wire digest (every NIC, read after the
	// drain); equal hashes mean bit-identical runs.
	TraceHash uint64
	// PendingAfterDrain is the scheduler's pending-event count after the
	// harness stops every periodic activity and runs the simulation to
	// quiescence. Nonzero means a leaked timer — an orphaned retransmit
	// loop or an unstopped ticker still holding the queue open.
	PendingAfterDrain int
	// Metrics is the migration's metric record, if it got far enough.
	Metrics *migration.Metrics
	// Obs is the cell's observability capture (nil unless
	// ChaosConfig.Observe).
	Obs *obs.Capture
	// FlightDump is the flight recorder's retained window (the last
	// events of every scheduler/node/stack/NIC track), taken from the
	// replay of a cell that violated an invariant.
	FlightDump string
}

func (r *ChaosResult) capture() *obs.Capture        { return r.Obs }
func (r *ChaosResult) verdict() (uint64, *[]string) { return r.TraceHash, &r.Violations }

// ChaosReport aggregates a chaos sweep or a strategy race (a chaos
// sweep with the strategy as one more, outermost, axis).
type ChaosReport struct{ Report[*ChaosResult] }

// Counts returns (survived, completed, aborted, violated) cell counts.
func (r *ChaosReport) Counts() (survived, completed, aborted, violated int) {
	for _, res := range r.Results {
		if res.Survived {
			survived++
		}
		if res.Completed {
			completed++
		}
		if res.Aborted {
			aborted++
		}
	}
	return survived, completed, aborted, r.Violations()
}

// Table renders every cell with the three per-strategy latency columns:
// freeze time (process stopped on both nodes), total downtime (freeze
// plus post-resume demand-fault stalls), and the degraded window (from
// migration start until the last page fill — the span in which the
// process runs below full speed). For pre-copy the stall share is zero
// and the degraded window ends at resume, so the columns degenerate to
// the classic freeze-centric view.
func (r *ChaosReport) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "strategy race: per-cell freeze / downtime / degraded window under chaos\n")
	fmt.Fprintf(&b, "%-9s %-18s %5s %8s %7s %10s %10s %10s %6s %18s\n",
		"strategy", "scenario", "seed", "outcome", "viol", "freeze-ms", "down-ms", "degr-ms", "pulls", "trace-hash")
	for _, res := range r.Results {
		outcome := "none"
		switch {
		case res.Completed:
			outcome = "migrated"
		case res.Aborted:
			outcome = "aborted"
		}
		freeze, down, degr, pulls := "-", "-", "-", "-"
		if m := res.Metrics; m != nil && res.Completed {
			freeze = fmt.Sprintf("%.2f", float64(m.FreezeTime)/1e6)
			down = fmt.Sprintf("%.2f", float64(m.FreezeTime+m.StallTime)/1e6)
			degr = fmt.Sprintf("%.2f", float64(m.DegradedWindow)/1e6)
			pulls = fmt.Sprintf("%d", m.PagesDemand+m.PagesPrefetched)
		}
		fmt.Fprintf(&b, "%-9s %-18s %5d %8s %7d %10s %10s %10s %6s %#18x\n",
			res.Strategy, res.Scenario, res.Seed, outcome, len(res.Violations),
			freeze, down, degr, pulls, res.TraceHash)
	}
	s, c, a, v := r.Counts()
	fmt.Fprintf(&b, "total: %d cells, %d survived, %d migrated, %d aborted, %d with violations\n",
		len(r.Results), s, c, a, v)
	return b.String()
}

// RunChaosSweep runs every scenario at every seed and reports
// survival/abort/invariant-violation counts per cell, in
// scenario-major, seed-minor order.
func RunChaosSweep(cfg ChaosConfig) (*ChaosReport, error) {
	rep, err := sweep(cfg.Scenarios, cfg.Seeds, cfg.Workers, cfg.Prof.Sweep("chaos-sweep", cfg.Workers),
		func(sc ChaosScenario, seed uint64) string { return chaosKey(sc.Name, seed) }, cfg.runCell)
	return &ChaosReport{rep}, err
}

// runCell runs one (scenario, seed) cell: a zone process with
// external clients and a DB session, a migration under the scenario's
// faults, and an end-to-end byte-stream audit afterwards. A lit cell
// carries its flight recorder's window in FlightDump.
func (cfg ChaosConfig) runCell(sc ChaosScenario, seed uint64, lit bool) (*ChaosResult, error) {
	label := fmt.Sprintf("%s/seed%d", sc.Name, seed) // the capture's; the profile's has a prefix
	f := newFixture(3, cfg.Observe, lit, cfg.Prof, "chaos/"+label)
	f.hashWires()
	sched, cluster := f.sched, f.cluster
	src, dst, dbNode := cluster.Nodes[0], cluster.Nodes[1], cluster.Nodes[2]
	srcMig, err := f.migrator(src, cfg.MigCfg)
	if err != nil {
		return nil, err
	}
	dstMig, err := f.migrator(dst, cfg.MigCfg)
	if err != nil {
		return nil, err
	}
	if _, err := xlat.StartTransd(dbNode.Stack, dbNode.LocalIP); err != nil {
		return nil, err
	}

	// DB listener: accepts the zone's session and swallows pings.
	dbl := netstack.NewTCPSocket(dbNode.Stack)
	if err := dbl.Listen(dbNode.LocalIP, 3306); err != nil {
		return nil, err
	}
	var dbPeer *netstack.TCPSocket
	dbl.OnAccept = func(ch *netstack.TCPSocket) {
		dbPeer = ch
		ch.OnReadable = func() { ch.Discard() }
	}

	// The zone process and its client listener.
	p := src.Spawn("zone_serv", 2)
	heap := p.AS.Mmap(128*proc.PageSize, "rw-")
	lst := netstack.NewTCPSocket(src.Stack)
	if err := lst.Listen(cluster.ClusterIP, 7777); err != nil {
		return nil, err
	}
	var accepted []*netstack.TCPSocket
	lst.OnAccept = func(ch *netstack.TCPSocket) { accepted = append(accepted, ch) }
	p.FDs.Install(&proc.TCPFile{Sock: lst})

	host, clientNIC := f.externalHost("players")

	recv := make(map[uint16][]byte) // client local port -> bytes observed
	clients := make([]*netstack.TCPSocket, 0, chaosClients)
	for i := 0; i < chaosClients; i++ {
		cli := netstack.NewTCPSocket(host)
		if err := cli.Connect(cluster.ClusterIP, 7777); err != nil {
			return nil, err
		}
		cli.OnReadable = func() {
			if data := cli.Recv(); len(data) > 0 {
				recv[cli.LocalPort] = append(recv[cli.LocalPort], data...)
			}
		}
		clients = append(clients, cli)
	}
	dbSock := netstack.NewTCPSocket(src.Stack)
	if err := dbSock.Connect(dbNode.LocalIP, 3306); err != nil {
		return nil, err
	}
	sched.RunFor(2 * 1e9)
	if len(accepted) != chaosClients || dbPeer == nil {
		return nil, fmt.Errorf("chaos setup: accepted=%d db=%v", len(accepted), dbPeer != nil)
	}
	for _, sk := range accepted {
		p.FDs.Install(&proc.TCPFile{Sock: sk})
	}
	p.FDs.Install(&proc.TCPFile{Sock: dbSock})
	sched.RunFor(200 * 1e6)

	// The app: every tick, drain each client connection and push the
	// next chunk of its deterministic per-connection stream. The stream
	// ledger lives in the closure and therefore travels with the
	// process; the audit below compares it against what clients saw.
	sent := make(map[uint16][]byte) // server's view, by client port
	sending := true
	tick := 0
	dbAddr := dbNode.LocalIP
	p.Tick = func(self *proc.Process) {
		tick++
		tcp, _ := self.Sockets()
		for _, sk := range tcp {
			if sk.State != netstack.TCPEstablished {
				continue
			}
			if sk.RemoteIP == dbAddr {
				sk.Discard()
				_ = sk.Send([]byte("ping;"))
				continue
			}
			sk.Discard() // client input is drained, not audited here
			if !sending {
				continue
			}
			port := sk.RemotePort
			msg := []byte(fmt.Sprintf("s%d.%d|update-payload;", port, len(sent[port])))
			sent[port] = append(sent[port], msg...)
			_ = sk.Send(msg)
		}
		_ = self.AS.Touch(heap.Start + uint64(tick%128)*proc.PageSize)
	}
	p.CPUDemand = 0.4
	src.StartLoop(p, 50*1e6)

	// Clients send input events to keep both directions busy.
	cliTicker := simtime.NewTicker(sched, 40*1e6, "chaos.clients", func() {
		for _, cli := range clients {
			_ = cli.Send([]byte("ev;"))
		}
	})
	cliTicker.Start()

	inj := faults.NewInjector(sched, seed)
	inj.Obs = f.obs
	env := &ChaosEnv{
		Sched: sched, Cluster: cluster, Inj: inj,
		Source: src, Dest: dst, DB: dbNode,
		SrcMig: srcMig, DstMig: dstMig,
		ClientNIC: clientNIC, MigrateAt: sched.Now() + 800*1e6,
	}
	if sc.Arm != nil {
		sc.Arm(env)
	}

	res := &ChaosResult{Strategy: cfg.MigCfg.Mig.Name(), Scenario: sc.Name, Seed: seed}
	sched.At(env.MigrateAt, "chaos.migrate", func() {
		srcMig.Migrate(p, dst.LocalIP, func(m *migration.Metrics, err error) {
			res.Metrics = m
			if err != nil {
				res.Aborted = true
				res.AbortReason = err.Error()
			} else {
				res.Completed = true
			}
		})
	})

	// Run well past every fault window, stop the stream, then drain.
	sched.RunFor(10 * 1e9)
	sending = false
	sched.RunFor(3 * 1e9)
	cliTicker.Stop()

	// Survival: the process runs on exactly one of the two nodes.
	home, breach := singleOwner(cluster.Nodes[:2], "zone_serv", true)
	if breach != "" && home != nil {
		res.Violations = append(res.Violations, "process running on both nodes")
	}
	res.Survived = home != nil
	if home == nil {
		res.Violations = append(res.Violations, "process not running anywhere")
	} else if res.Completed && home != dst {
		res.Violations = append(res.Violations, "migration reported success but process not on destination")
	} else if res.Aborted && home != src {
		res.Violations = append(res.Violations, "migration aborted but process not back on source")
	}

	// Byte-stream audit: what each client observed must be exactly what
	// the server's ledger says was sent to it — same bytes, same order,
	// nothing duplicated, nothing missing.
	ports := make([]uint16, 0, len(clients))
	for _, cli := range clients {
		ports = append(ports, cli.LocalPort)
		res.ClientRetransmits += cli.Retransmits
	}
	slices.Sort(ports)
	for _, port := range ports {
		got, want := recv[port], sent[port]
		if string(got) != string(want) {
			detail := ""
			if home != nil {
				for _, pr := range home.Processes() {
					if pr.Name != "zone_serv" {
						continue
					}
					tcp, _ := pr.Sockets()
					for _, sk := range tcp {
						if sk.RemotePort == port {
							detail = fmt.Sprintf(" (server sock state=%v unhashed=%v sndbuf=%d wq=%d una=%d nxt=%d cwnd=%d swnd=%d retrans=%d fast=%d rto=%dms)",
								sk.State, sk.Unhashed(), sk.SendBufLen(), len(sk.WriteQueue()),
								sk.SndUna, sk.SndNxt, sk.Cwnd, sk.SndWnd, sk.Retransmits, sk.FastRetransmits, sk.RTOms)
						}
					}
					for _, cli := range clients {
						if cli.LocalPort == port {
							detail += fmt.Sprintf(" (client state=%v rcvnxt=%d ooo=%d retrans=%d)",
								cli.State, cli.RcvNxt, len(cli.OOOQueue()), cli.Retransmits)
						}
					}
				}
			}
			res.Violations = append(res.Violations,
				fmt.Sprintf("client :%d stream mismatch: got %d bytes, want %d%s", port, len(got), len(want), detail))
		}
		if len(want) == 0 {
			res.Violations = append(res.Violations,
				fmt.Sprintf("client :%d starved: server never sent", port))
		}
	}

	// Drain to quiescence: with the stream stopped, disarm the surviving
	// process's loop and close the client sockets; nothing periodic is
	// left.
	if home != nil {
		for _, pr := range home.Processes() {
			if pr.Name == "zone_serv" {
				home.StopLoop(pr)
			}
		}
	}
	for _, cli := range clients {
		cli.Close()
	}
	res.Violations = append(res.Violations, f.drain()...)
	res.PendingAfterDrain = sched.Pending()
	res.TraceHash = f.digest.h
	res.Obs = f.capture(label)
	res.FlightDump = f.flightDump()
	return res, nil
}
