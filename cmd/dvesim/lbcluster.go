package main

import (
	"fmt"
	"io"

	"dvemig/internal/lb"
	"dvemig/internal/migration"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
)

// lbcluster is an interactive-scale demo of the decentralized
// middleware: it builds a cluster, spawns unevenly sized worker
// processes, lets the conductors balance (or consolidate) them, and
// prints the per-node load every few simulated seconds.
func lbcluster(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("lbcluster", stderr)
	nodes := fs.Int("nodes", 5, "cluster size")
	procs := fs.Int("procs", 12, "worker processes, all spawned on node1")
	mode := fs.String("mode", "balance", "balance|consolidate")
	duration := fs.Int("duration", 120, "simulated seconds")
	fs.Parse(args)

	sched := simtime.NewScheduler()
	cluster := proc.NewCluster(sched, *nodes)
	cfg := lb.DefaultConfig()
	cfg.CalmDown = 5e9
	switch *mode {
	case "balance":
		cfg.Mode = lb.ModeBalance
	case "consolidate":
		cfg.Mode = lb.ModeConsolidate
	default:
		return die(fs, 2, fmt.Errorf("unknown mode %q", *mode))
	}

	var conductors []*lb.Conductor
	for _, n := range cluster.Nodes {
		m, err := migration.NewMigrator(n, migration.DefaultConfig())
		if err != nil {
			return die(fs, 1, err)
		}
		cd, err := lb.NewConductor(n, m, cfg)
		if err != nil {
			return die(fs, 1, err)
		}
		conductors = append(conductors, cd)
	}

	// All workers start on node1 with varied demand: the worst case for a
	// sender-initiated balancer.
	rnd := simtime.NewRand(7)
	for i := 0; i < *procs; i++ {
		p := cluster.Nodes[0].Spawn(fmt.Sprintf("worker%d", i), 1)
		v := p.AS.Mmap(64*proc.PageSize, "rw-")
		p.CPUDemand = 0.1 + 0.05*float64(rnd.Intn(8))
		heap := v.Start
		p.Tick = func(self *proc.Process) { _ = self.AS.Touch(heap) }
		cluster.Nodes[0].StartLoop(p, 50*1e6)
	}

	fmt.Fprintf(stdout, "%8s", "t(s)")
	for _, n := range cluster.Nodes {
		fmt.Fprintf(stdout, "%18s", n.Name)
	}
	fmt.Fprintln(stdout)
	printer := simtime.NewTicker(sched, 5e9, "print", func() {
		fmt.Fprintf(stdout, "%8.0f", sched.Now().Seconds())
		for _, n := range cluster.Nodes {
			fmt.Fprintf(stdout, "  %5.1f%% (%2d procs)", n.Utilization()*100, n.NumProcesses())
		}
		fmt.Fprintln(stdout)
	})
	printer.Start()
	sched.RunUntil(simtime.Duration(*duration) * 1e9)

	total := 0
	for _, cd := range conductors {
		total += cd.Migrations
	}
	fmt.Fprintf(stdout, "\ncompleted migrations: %d\n", total)
	for _, cd := range conductors {
		for _, e := range cd.Events {
			if e.Kind == "migrate-out" {
				fmt.Fprintf(stdout, "  %6.0fs %s pid=%d -> %v\n", e.At.Seconds(), cd.Node.Name, e.PID, e.Peer)
			}
		}
	}
	return 0
}
