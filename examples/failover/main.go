// Failover: the fault-tolerance extension (paper §VIII names it as
// future work for the mechanism), driven end to end by the conductor's
// failure detector. A counter service on node1 is guarded by periodic
// checkpoints streamed to a standby on node2 and its ownership is
// announced under an epoch. Node1 then crashes — and nobody calls
// Activate by hand: node2's conductor notices the missed heartbeats,
// confirms the peer dead, claims the service with its freshest image,
// wins the election and restarts the service under a bumped ownership
// epoch. UDP service port and TCP listener come back intact, at most
// one checkpoint interval of state is lost, and any node still holding
// stale serving state would fence itself the moment it heard the new
// epoch advertised.
package main

import (
	"fmt"
	"log"

	"dvemig/internal/faults"
	"dvemig/internal/lb"
	"dvemig/internal/migration"
	"dvemig/internal/netstack"
	"dvemig/internal/obs"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
)

func main() {
	sched := simtime.NewScheduler()
	cluster := proc.NewCluster(sched, 3)

	// One shared observability plane: every migrator and conductor traces
	// into the same tracer, so the epilogue migration's spans — source,
	// destination and any conductor decisions — share one trace ID.
	o := obs.New(sched)

	// Conductors on every node: load balancing, heartbeats, and — once a
	// standby is wired in — the failure detector that drives failover.
	var conds []*lb.Conductor
	var migs []*migration.Migrator
	for _, n := range cluster.Nodes {
		mig, err := migration.NewMigrator(n, migration.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		mig.SetObs(o)
		cd, err := lb.NewConductor(n, mig, lb.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		cd.SetObs(o)
		conds = append(conds, cd)
		migs = append(migs, mig)
	}
	standby, err := migration.NewStandby(cluster.Nodes[1])
	if err != nil {
		log.Fatal(err)
	}
	conds[1].EnableFailover(standby)

	// The service: counts requests, persists the counter in its memory.
	svc := cluster.Nodes[0].Spawn("scoreboard", 1)
	mem := svc.AS.Mmap(4*proc.PageSize, "rw-")
	us := netstack.NewUDPSocket(cluster.Nodes[0].Stack)
	if err := us.Bind(cluster.ClusterIP, 5100); err != nil {
		log.Fatal(err)
	}
	svc.FDs.Install(&proc.UDPFile{Sock: us})
	svc.Tick = func(self *proc.Process) {
		_, udp := self.Sockets()
		for _, sock := range udp {
			for {
				dg, ok := sock.Recv()
				if !ok {
					break
				}
				cur, _ := self.AS.Read(mem.Start, 4)
				n := uint32(cur[0]) | uint32(cur[1])<<8 | uint32(cur[2])<<16
				n++
				_ = self.AS.Write(mem.Start, []byte{byte(n), byte(n >> 8), byte(n >> 16)})
				_ = sock.SendTo(dg.SrcIP, dg.SrcPort, []byte{byte(n), byte(n >> 8), byte(n >> 16)})
			}
		}
	}
	cluster.Nodes[0].StartLoop(svc, 50*1e6)

	// Guard the service and announce its ownership: the guardian ships a
	// checkpoint every 500ms, stamped with the minted epoch.
	guardian, err := migration.NewGuardian(svc, cluster.Nodes[1].LocalIP, 500*1e6)
	if err != nil {
		log.Fatal(err)
	}
	epoch := conds[0].AnnounceOwnership("scoreboard", guardian)

	// A client scoring points through the public IP.
	ext := cluster.NewExternalHost("player")
	extAddr, _ := ext.SourceAddrFor(cluster.ClusterIP)
	cli := netstack.NewUDPSocket(ext)
	cli.BindEphemeral(extAddr)
	var lastScore uint32
	cli.OnReadable = func() {
		for {
			dg, ok := cli.Recv()
			if !ok {
				return
			}
			lastScore = uint32(dg.Payload[0]) | uint32(dg.Payload[1])<<8 | uint32(dg.Payload[2])<<16
		}
	}
	tk := simtime.NewTicker(sched, 100*1e6, "score", func() {
		_ = cli.SendTo(cluster.ClusterIP, 5100, []byte("+1"))
	})
	tk.Start()

	sched.RunFor(5e9)
	fmt.Printf("service owned under epoch %d; score=%d, checkpoints shipped=%d (last image %d bytes)\n",
		epoch, lastScore, guardian.Sent, guardian.LastBytes)

	// Node1 dies — injected through the fault plane, the same mechanism
	// the chaos suite uses. From here on nothing is scripted: node2's
	// detector walks the peer through suspect → dead, claims the service
	// and activates the image on its own.
	scoreAtCrash := lastScore
	inj := faults.NewInjector(sched, 1)
	inj.CrashAt(cluster, cluster.Nodes[0], sched.Now()+1)
	sched.RunFor(12e9)

	for _, ev := range conds[1].Events {
		switch ev.Kind {
		case "suspect", "peer-dead":
			fmt.Printf("t=%4.1fs detector: %s %v\n", float64(ev.At)/1e9, ev.Kind, ev.Peer)
		case "claim", "activate":
			fmt.Printf("t=%4.1fs failover: %s %q\n", float64(ev.At)/1e9, ev.Kind, ev.Name)
		}
	}
	newEpoch, _ := conds[1].OwnershipEpoch("scoreboard")
	fmt.Printf("standby activated automatically (%d failover) — now owned by node2 under epoch %d\n",
		conds[1].Failovers, newEpoch)

	sched.RunFor(5e9)
	fmt.Printf("after failover: score=%d (was %d at crash; at most one 500ms interval lost, then climbing again)\n",
		lastScore, scoreAtCrash)

	// Epilogue: a planned live migration moves the restarted service off
	// the standby onto node3 — e.g. to free the buddy for its next ward.
	// PhaseEvent.Since hands each consumer the previous phase's
	// timestamp, so the per-phase latency is Time-Since — no bookkeeping
	// of "when did the last phase fire" on our side.
	var restarted *proc.Process
	for _, p := range cluster.Nodes[1].Processes() {
		if p.Name == "scoreboard" {
			restarted = p
		}
	}
	if restarted == nil {
		log.Fatal("restarted scoreboard not found on node2")
	}
	migs[1].OnPhase = func(ev migration.PhaseEvent) {
		fmt.Printf("t=%4.1fs phase %-8s +%6.2fms on %s\n",
			float64(ev.Time)/1e9, ev.Phase, float64(ev.Time-ev.Since)/1e6, ev.Node)
	}
	migs[1].Migrate(restarted, cluster.Nodes[2].LocalIP, func(m *migration.Metrics, err error) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("planned migration done: froze %.2fms\n", float64(m.FreezeTime)/1e6)
		// The trace ID names the whole causal tree: the source migration
		// span, every phase child, and node3's inbound restore spans all
		// parent into span #TraceID. Filter on it in Perfetto (or grep a
		// -trace-out export for "trace_id":"N") to see this one migration
		// end to end across both nodes.
		fmt.Printf("end-to-end trace id of the planned migration: %d\n", m.TraceID)
	})
	sched.RunFor(5e9)
	tk.Stop()
	fmt.Printf("final score=%d, scoreboard now on node3\n", lastScore)
	fmt.Println()
	fmt.Println("To see where two seeds of the same experiment first part ways, export both and diff them:")
	fmt.Println("  go run ./cmd/dvesim migbench -conns 64 -repeats 1 -seed 1 -trace-out a.json")
	fmt.Println("  go run ./cmd/dvesim migbench -conns 64 -repeats 1 -seed 2 -trace-out b.json")
	fmt.Println("  go run ./cmd/report obsdiff a.json b.json   # first divergent event + its causal ancestry")
}
