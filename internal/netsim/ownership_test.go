package netsim_test

import (
	"testing"

	"dvemig/internal/dve"
	"dvemig/internal/migration"
	"dvemig/internal/netsim"
	"dvemig/internal/netstack"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
	"dvemig/internal/xlat"
)

// TestPoolBalanceAcrossLiveMigration runs the freeze harness's shape — a
// zone server with 8 game clients and a DB session, live-migrated from
// node 1 to node 2 while traffic flows — then stops the load, drains the
// simulation to quiescence and audits the struct pool: every packet the
// run obtained was released by a sink, except the ones still parked in a
// socket queue. After the migration the source node keeps the :7000
// listener, so every broadcast client segment demuxes to it; a sink that
// forgets to release (the listener did) shows up as a gap here.
func TestPoolBalanceAcrossLiveMigration(t *testing.T) {
	const conns = 8
	var parked int
	obtained, released := netsim.AuditPools(func() {
		sched := simtime.NewScheduler()
		cluster := proc.NewCluster(sched, 3) // source, destination, DB
		src, dst, dbNode := cluster.Nodes[0], cluster.Nodes[1], cluster.Nodes[2]
		var migs []*migration.Migrator
		for _, n := range cluster.Nodes[:2] {
			m, err := migration.NewMigrator(n, migration.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			migs = append(migs, m)
		}
		if _, err := dve.StartDBServer(dbNode); err != nil {
			t.Fatal(err)
		}
		if _, err := xlat.StartTransd(dbNode.Stack, dbNode.LocalIP); err != nil {
			t.Fatal(err)
		}

		p := src.Spawn("zone_serv", 2)
		heap := p.AS.Mmap(64*proc.PageSize, "rw-")
		lst := netstack.NewTCPSocket(src.Stack)
		if err := lst.Listen(cluster.ClusterIP, 7000); err != nil {
			t.Fatal(err)
		}
		lst.OnAccept = func(ch *netstack.TCPSocket) { p.FDs.Install(&proc.TCPFile{Sock: ch}) }
		host := cluster.NewExternalHost("players")
		var clients []*netstack.TCPSocket
		for i := 0; i < conns; i++ {
			cli := netstack.NewTCPSocket(host)
			if err := cli.Connect(cluster.ClusterIP, 7000); err != nil {
				t.Fatal(err)
			}
			cli.OnReadable = func() { cli.Discard() }
			clients = append(clients, cli)
		}
		dbSock := netstack.NewTCPSocket(src.Stack)
		if err := dbSock.Connect(dbNode.LocalIP, dve.DBPort); err != nil {
			t.Fatal(err)
		}
		p.FDs.Install(&proc.TCPFile{Sock: dbSock})
		sched.RunFor(2e9)
		if tcp, _ := p.Sockets(); len(tcp) != conns+1 {
			t.Fatalf("%d of %d sockets established", len(tcp), conns+1)
		}

		load := simtime.NewTicker(sched, 10e6, "test.clients", func() {
			for _, cli := range clients {
				_ = cli.Send([]byte("ev"))
			}
		})
		load.Start()
		msg := make([]byte, 256)
		tick := 0
		p.Tick = func(self *proc.Process) {
			tick++
			tcp, _ := self.Sockets()
			for _, sk := range tcp {
				if sk.State == netstack.TCPEstablished {
					sk.Discard()
					_ = sk.Send(msg)
				}
			}
			_ = self.AS.Touch(heap.Start + uint64(tick%64)*proc.PageSize)
		}
		src.StartLoop(p, 20e6)
		sched.RunFor(500e6)

		var migErr error
		done := false
		migs[0].Migrate(p, dst.LocalIP, func(_ *migration.Metrics, err error) { done, migErr = true, err })
		sched.RunFor(5e9) // the migration, then 200+ broadcast rounds past the stale listener
		if !done || migErr != nil {
			t.Fatalf("migration: done=%v err=%v", done, migErr)
		}
		moved := dst.Processes()
		if len(moved) != 1 {
			t.Fatalf("%d processes on the destination", len(moved))
		}

		// Quiesce: stop both load generators, then run the event queue dry
		// (in-flight packets land, unacked segments are retransmitted or
		// their connections time out).
		load.Stop()
		dst.StopLoop(moved[0])
		sched.Run()

		socks := append([]*netstack.TCPSocket{lst}, clients...)
		oldTCP, _ := p.Sockets() // the migrated-away originals keep their queues
		socks = append(socks, oldTCP...)
		for _, n := range cluster.Nodes {
			socks = append(socks, n.Stack.EstablishedSockets()...)
		}
		for _, sk := range socks {
			parked += len(sk.WriteQueue()) + len(sk.ReceiveQueue()) + len(sk.OOOQueue()) + sk.BacklogLen()
		}
	})
	if obtained == 0 || obtained-released != uint64(parked) {
		t.Fatalf("obtained %d packets, released %d: %d unaccounted for, %d parked in socket queues",
			obtained, released, int64(obtained-released)-int64(parked), parked)
	}
}
