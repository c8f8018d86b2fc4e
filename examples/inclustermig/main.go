// Inclustermig: demonstrates migrating a process that holds an
// *in-cluster* connection (a MySQL session to the database node) — the
// §III-C scenario. The peer's transd installs a translation filter, the
// connection follows the process through TWO consecutive migrations, and
// the database server never notices anything.
package main

import (
	"fmt"
	"log"

	"dvemig/internal/dve"
	"dvemig/internal/migration"
	"dvemig/internal/netstack"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
	"dvemig/internal/xlat"
)

func main() {
	sched := simtime.NewScheduler()
	cluster := proc.NewCluster(sched, 3)
	dbNode := cluster.AddNode("db")
	db, err := dve.StartDBServer(dbNode)
	if err != nil {
		log.Fatal(err)
	}
	// The DB machine runs only the translation daemon (it neither sends
	// nor receives migrations itself).
	transd, err := xlat.StartTransd(dbNode.Stack, dbNode.LocalIP)
	if err != nil {
		log.Fatal(err)
	}

	var migs []*migration.Migrator
	for _, n := range cluster.Nodes[:3] {
		m, err := migration.NewMigrator(n, migration.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		migs = append(migs, m)
	}

	// The worker on node1 keeps one MySQL session and writes a heartbeat
	// row twice a second.
	w := cluster.Nodes[0].Spawn("world_writer", 1)
	sess := netstack.NewTCPSocket(cluster.Nodes[0].Stack)
	if err := sess.Connect(dbNode.LocalIP, dve.DBPort); err != nil {
		log.Fatal(err)
	}
	w.FDs.Install(&proc.TCPFile{Sock: sess})
	seq := 0
	w.Tick = func(self *proc.Process) {
		tcp, _ := self.Sockets()
		for _, sk := range tcp {
			sk.Discard()
			seq++
			_ = sk.Send([]byte(fmt.Sprintf("SET heartbeat %d;", seq)))
		}
	}
	cluster.Nodes[0].StartLoop(w, 500*1e6)
	sched.RunFor(3e9)
	fmt.Printf("before migration: db heartbeat=%s, translation rules on db host: %d\n",
		db.Get("heartbeat"), len(transd.Translator().Rules()))

	hop := func(from int, to int) {
		p := findWorker(cluster.Nodes[to-1], cluster.Nodes[from])
		migs[from].Migrate(p, cluster.Nodes[to].LocalIP, func(m *migration.Metrics, err error) {
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("hop node%d -> node%d: frozen %v\n", from+1, to+1, m.FreezeTime)
		})
		sched.RunFor(5e9)
	}
	hop(0, 1) // node1 -> node2
	hop(1, 2) // node2 -> node3

	sched.RunFor(2e9)
	rules := transd.Translator().Rules()
	fmt.Printf("after two hops: db heartbeat=%s (still climbing), rules on db host: %d\n",
		db.Get("heartbeat"), len(rules))
	for _, r := range rules {
		fmt.Printf("  translation: %v\n", r)
	}
	fmt.Println("the database's socket still believes it talks to node1:")
	fmt.Printf("  sessions accepted: %d (never reconnected), queries served: %d\n",
		db.Sessions, db.Queries)
}

func findWorker(on *proc.Node, fallback *proc.Node) *proc.Process {
	for _, n := range []*proc.Node{fallback, on} {
		for _, p := range n.Processes() {
			if p.Name == "world_writer" {
				return p
			}
		}
	}
	log.Fatal("worker lost")
	return nil
}
