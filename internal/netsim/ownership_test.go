package netsim_test

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"dvemig/internal/capture"
	"dvemig/internal/dve"
	"dvemig/internal/eval"
	"dvemig/internal/faults"
	"dvemig/internal/migration"
	"dvemig/internal/netsim"
	"dvemig/internal/netstack"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
	"dvemig/internal/sockmig"
	"dvemig/internal/xlat"
)

// TestPoolBalanceAcrossLiveMigration runs the freeze harness's shape — a
// zone server with 8 game clients, a DB session and a UDP status port it
// reads only every eighth tick, so it migrates with datagrams queued,
// live-migrated from node 1 to node 2 while traffic flows — then stops
// the load, drains the simulation to quiescence and audits the struct
// pool: every packet the run obtained was released by a sink, except the
// ones still parked in a socket queue (a UDP queue holds the packets its
// datagrams arrived in, and lends each out for one read). The
// migrated-away originals hold none: the commit released their queues,
// which the image carried by copy. After the migration the source node
// keeps the :7000 listener, so every broadcast client segment demuxes to
// it; a sink that forgets to release (the listener did) shows up as a
// gap here.
//
// The same drained state is then read stack by stack: every packet and
// payload went back to the free list of the stack that minted it, so each
// stack's list holds exactly what it minted minus what — of its own — sits
// in a socket queue somewhere in the cell.
func TestPoolBalanceAcrossLiveMigration(t *testing.T) {
	const conns = 8
	var parked, pings int
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
		status := netstack.NewUDPSocket(src.Stack)
		if err := status.Bind(cluster.ClusterIP, 7001); err != nil {
			t.Fatal(err)
		}
		p.FDs.Install(&proc.UDPFile{Sock: status})
		pinger := netstack.NewUDPSocket(host)
		pingAddr, err := host.SourceAddrFor(cluster.ClusterIP)
		if err != nil {
			t.Fatal(err)
		}
		pinger.BindEphemeral(pingAddr)
		sched.RunFor(2e9)
		if tcp, _ := p.Sockets(); len(tcp) != conns+1 {
			t.Fatalf("%d of %d sockets established", len(tcp), conns+1)
		}

		load := simtime.NewTicker(sched, 10e6, "test.clients", func() {
			for _, cli := range clients {
				_ = cli.Send([]byte("ev"))
			}
			_ = pinger.SendTo(cluster.ClusterIP, 7001, []byte("status?"))
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
			if _, udp := self.Sockets(); tick%8 == 0 {
				for {
					dg, ok := udp[0].Recv()
					if !ok {
						break
					}
					if string(dg.Payload) != "status?" {
						t.Errorf("status port read %q", dg.Payload)
					}
					pings++
				}
			}
		}
		src.StartLoop(p, 20e6)
		sched.RunFor(500e6)

		var migErr error
		done := false
		queuedAtFreeze := 0
		migs[0].OnPhase = func(ev migration.PhaseEvent) {
			if _, udp := p.Sockets(); ev.Phase == migration.PhaseTransfer {
				queuedAtFreeze = udp[0].QueueLen()
			}
		}
		migs[0].Migrate(p, dst.LocalIP, func(_ *migration.Metrics, err error) { done, migErr = true, err })
		sched.RunFor(5e9) // the migration, then 200+ broadcast rounds past the stale listener
		if !done || migErr != nil {
			t.Fatalf("migration: done=%v err=%v", done, migErr)
		}
		moved := dst.Processes()
		if len(moved) != 1 {
			t.Fatalf("%d processes on the destination", len(moved))
		}
		if queuedAtFreeze == 0 {
			t.Fatal("the UDP socket migrated with an empty queue: the case under test did not occur")
		}

		// Quiesce: stop both load generators, then run the event queue dry
		// (in-flight packets land, unacked segments are retransmitted or
		// their connections time out).
		load.Stop()
		dst.StopLoop(moved[0])
		sched.Run()

		oldTCP, oldUDP := p.Sockets()
		for _, sk := range oldTCP {
			if n := len(sk.WriteQueue()) + len(sk.ReceiveQueue()) + len(sk.OOOQueue()) + sk.BacklogLen(); n != 0 {
				t.Errorf("migrated-away original :%d holds %d packets after the commit", sk.LocalPort, n)
			}
		}
		if n := oldUDP[0].QueueLen(); n != 0 {
			t.Errorf("migrated-away UDP original holds %d datagrams after the commit", n)
		}
		socks := append([]*netstack.TCPSocket{lst}, clients...)
		for _, n := range cluster.Nodes {
			socks = append(socks, n.Stack.EstablishedSockets()...)
		}
		type census struct {
			packets  int
			payloads map[*byte]bool // distinct pooled buffers: clones share one
		}
		byHome := map[*netsim.Pool]*census{}
		count := func(q []*netsim.Packet) {
			parked += len(q)
			for _, pk := range q {
				c := byHome[netsim.HomeOf(pk)]
				if c == nil {
					c = &census{payloads: map[*byte]bool{}}
					byHome[netsim.HomeOf(pk)] = c
				}
				c.packets++
				if netsim.PayloadHolders(pk.Payload) > 0 {
					c.payloads[&pk.Payload[0]] = true
				}
			}
		}
		for _, sk := range socks {
			parked += sk.BacklogLen() // empty once drained; its packets are not exposed
			count(sk.WriteQueue())
			count(sk.ReceiveQueue())
			count(sk.OOOQueue())
		}
		// The restored UDP socket holds what arrived since its last read,
		// and no datagram out on loan — every read loop ran until Recv
		// failed.
		_, newUDP := moved[0].Sockets()
		count(newUDP[0].ReceiveQueue())
		if newUDP[0].QueueLen() == 0 || pings == 0 {
			t.Errorf("status port: %d datagrams read, %d queued at the end: want both", pings, newUDP[0].QueueLen())
		}
		if c := byHome[nil]; c != nil {
			t.Errorf("%d parked packets have no home: a socket minted them without its stack's pool", c.packets)
		}
		delete(byHome, nil)
		for home, c := range byHome {
			st := home.Stats()
			if out := st.PacketsMinted - st.PacketsIdle; out != c.packets {
				t.Errorf("a pool has %d packets out (%+v), %d of its packets are parked", out, st, c.packets)
			}
			if out := st.PayloadsMinted - st.PayloadsIdle; out != len(c.payloads) {
				t.Errorf("a pool has %d payloads out (%+v), %d of its buffers are parked", out, st, len(c.payloads))
			}
		}
		// The pools above are some of the stacks'; the rest must have
		// everything back, which the totals show.
		var outPackets, outPayloads, wantPackets, wantPayloads int
		for _, st := range append([]*netstack.Stack{host}, src.Stack, dst.Stack, dbNode.Stack) {
			ps := st.PoolStats()
			if ps.PacketsMinted == 0 {
				t.Errorf("stack %s minted no packet", st.Name)
			}
			outPackets += ps.PacketsMinted - ps.PacketsIdle
			outPayloads += ps.PayloadsMinted - ps.PayloadsIdle
		}
		for _, c := range byHome {
			wantPackets += c.packets
			wantPayloads += len(c.payloads)
		}
		if outPackets != wantPackets || outPayloads != wantPayloads {
			t.Errorf("stacks have %d packets / %d payloads out, %d / %d are parked in socket queues",
				outPackets, outPayloads, wantPackets, wantPayloads)
		}
	})
	if obtained == 0 || obtained-released != uint64(parked) {
		t.Fatalf("obtained %d packets, released %d: %d unaccounted for, %d parked in socket queues",
			obtained, released, int64(obtained-released)-int64(parked), parked)
	}
}

// collector is a NIC handler that keeps what it is handed.
type collector struct{ got []*netsim.Packet }

func (c *collector) DeliverPacket(p *netsim.Packet) { c.got = append(c.got, p) }

// dropAll is a fault program that drops every packet.
type dropAll struct{}

func (dropAll) Apply(simtime.Time, string, *netsim.Packet) netsim.FaultAction {
	return netsim.FaultAction{Drop: true}
}

// TestReleaseLandsInHomePool: a packet goes back to the Pool that minted
// it whichever sink in the cell ends its life — none of them holds a
// handle to that Pool — and exactly once.
func TestReleaseLandsInHomePool(t *testing.T) {
	clusterIP := netsim.MakeAddr(203, 0, 113, 10)
	extAddr := netsim.MakeAddr(198, 51, 100, 1)
	sinks := []struct {
		name string
		kill func(t *testing.T, home *netsim.Pool, p *netsim.Packet)
	}{
		{"double Release", func(t *testing.T, home *netsim.Pool, p *netsim.Packet) {
			p.Release()
			p.Release()
		}},
		{"router with no recipient", func(t *testing.T, home *netsim.Pool, p *netsim.Packet) {
			sched := simtime.NewScheduler()
			r := netsim.NewBroadcastRouter(sched, clusterIP)
			ext := r.AttachExternal("ext", extAddr, netsim.GigabitEthernet)
			p.DstIP = clusterIP // broadcast with no server attached
			ext.Send(p)
			sched.Run()
		}},
		{"switch with no such port", func(t *testing.T, home *netsim.Pool, p *netsim.Packet) {
			sched := simtime.NewScheduler()
			sw := netsim.NewSwitch(sched)
			nic := sw.Attach("a", 1, netsim.GigabitEthernet)
			p.DstIP = 2
			nic.Send(p)
			sched.Run()
			if sw.Dropped != 1 {
				t.Fatalf("switch dropped %d", sw.Dropped)
			}
		}},
		{"fault drop on transmit", func(t *testing.T, home *netsim.Pool, p *netsim.Packet) {
			sched := simtime.NewScheduler()
			sw := netsim.NewSwitch(sched)
			nic := sw.Attach("a", 1, netsim.GigabitEthernet)
			nic.SetFault(dropAll{})
			nic.Send(p)
			sched.Run()
			if nic.FaultDropped != 1 {
				t.Fatalf("fault plane dropped %d", nic.FaultDropped)
			}
		}},
		{"fault drop on receive", func(t *testing.T, home *netsim.Pool, p *netsim.Packet) {
			sched := simtime.NewScheduler()
			sw := netsim.NewSwitch(sched)
			a := sw.Attach("a", 1, netsim.GigabitEthernet)
			b := sw.Attach("b", 2, netsim.GigabitEthernet)
			b.SetFault(dropAll{})
			p.DstIP = 2
			a.Send(p)
			sched.Run()
			if b.FaultDropped != 1 {
				t.Fatalf("fault plane dropped %d", b.FaultDropped)
			}
		}},
		{"another stack finds no socket", func(t *testing.T, home *netsim.Pool, p *netsim.Packet) {
			sched := simtime.NewScheduler()
			st := netstack.NewStack(sched, "b", 5)
			st.AttachNIC(netsim.NewSwitch(sched).Attach("b", 2, netsim.GigabitEthernet), 2)
			p.DstIP, p.Proto, p.DstPort = 2, netsim.ProtoUDP, 9
			st.DeliverPacket(p)
			if st.Stats.NoSocketDrops != 1 {
				t.Fatalf("stack dropped %d", st.Stats.NoSocketDrops)
			}
			if ps := st.PoolStats(); ps != (netsim.PoolStats{}) {
				t.Fatalf("the dropping stack's own pool moved: %+v", ps)
			}
		}},
		{"capture filter dropped", func(t *testing.T, home *netsim.Pool, p *netsim.Packet) {
			sched := simtime.NewScheduler()
			st := netstack.NewStack(sched, "b", 5)
			st.AttachNIC(netsim.NewSwitch(sched).Attach("b", 2, netsim.GigabitEthernet), 2)
			svc := capture.NewService(st)
			f := svc.Enable(netsim.FlowKey{LocalPort: 9, Proto: netsim.ProtoUDP})
			p.DstIP, p.Proto, p.DstPort = 2, netsim.ProtoUDP, 9
			st.DeliverPacket(p)
			if f.QueueLen() != 1 {
				t.Fatalf("filter captured %d", f.QueueLen())
			}
			if ps := home.Stats(); ps.PacketsIdle != 0 {
				t.Fatalf("a captured packet is already back: %+v", ps)
			}
			svc.Drop(f)
		}},
	}
	for _, sink := range sinks {
		t.Run(sink.name, func(t *testing.T) {
			var home netsim.Pool
			p := home.NewPacket()
			p.Payload = home.GetPayload(100)
			p.FixChecksum()
			sink.kill(t, &home, p)
			want := netsim.PoolStats{PacketsMinted: 1, PacketsIdle: 1, PayloadsMinted: 1, PayloadsIdle: 1}
			if got := home.Stats(); got != want {
				t.Fatalf("home pool after the sink: %+v, want %+v", got, want)
			}
			if q := home.NewPacket(); q != p {
				t.Fatal("the free list did not hand the released struct out again")
			}
		})
	}
}

// TestSharedPayloadReturnsOnceToItsHome: a write-queue original and the
// three packets a three-node broadcast makes of its wire clone all hold
// one payload buffer. All four structs and the buffer are the minting
// stack's; the buffer returns once, after the last of the four, whatever
// the order. A handle-less packet through the same router stays
// handle-less: its clones go back to the shared pools, not to a stack.
func TestSharedPayloadReturnsOnceToItsHome(t *testing.T) {
	sched := simtime.NewScheduler()
	clusterIP := netsim.MakeAddr(203, 0, 113, 10)
	r := netsim.NewBroadcastRouter(sched, clusterIP)
	var nodes [3]collector
	for i := range nodes {
		r.AttachServer("pub", netsim.GigabitEthernet).SetHandler(&nodes[i])
	}
	ext := r.AttachExternal("ext", netsim.MakeAddr(198, 51, 100, 1), netsim.GigabitEthernet)

	var home netsim.Pool
	orig := home.NewPacket()
	orig.DstIP = clusterIP
	orig.Payload = home.GetPayload(256)
	ext.Send(orig.Clone())
	sched.Run()
	four := []*netsim.Packet{nodes[1].got[0], orig, nodes[2].got[0], nodes[0].got[0]}
	body := orig.Payload
	for i, p := range four {
		if netsim.HomeOf(p) != &home || &p.Payload[0] != &body[0] {
			t.Fatalf("packet %d: not the sender's, or its payload not shared", i)
		}
		if got := netsim.PayloadHolders(body); got != len(four)-i {
			t.Fatalf("before release %d: %d holders, want %d", i, got, len(four)-i)
		}
		p.Release()
		want := netsim.PoolStats{PacketsMinted: 4, PacketsIdle: i + 1, PayloadsMinted: 1}
		if i == len(four)-1 {
			want.PayloadsIdle = 1
		}
		if got := home.Stats(); got != want {
			t.Fatalf("after release %d: %+v, want %+v", i, got, want)
		}
	}

	for i := range nodes {
		nodes[i].got = nil
	}
	bare := netsim.NewPacket()
	bare.DstIP = clusterIP
	bare.Payload = netsim.GetPayload(64)
	ext.Send(bare)
	sched.Run()
	for i := range nodes {
		p := nodes[i].got[0]
		if netsim.HomeOf(p) != nil {
			t.Fatalf("node %d: the router gave a handle-less packet's clone a home", i)
		}
		p.Release()
	}
	if got := home.Stats(); got.PacketsIdle != 4 || got.PayloadsIdle != 1 {
		t.Fatalf("handle-less packets landed in a stack's pool: %+v", got)
	}
}

// TestConcurrentCellsShareNoList runs freeze points on two goroutines,
// several in sequence on each. Every cell's end hands its idle packets
// to the process-wide reserve and the next cell, on either goroutine,
// draws from it. Under -race this is the proof that a stack's free list
// is its cell's alone and that the reserve hands packets from one
// goroutine's cell to another's safely: a list two live cells could both
// reach, or a packet a retired cell still touched, would be a reported
// race. The results are the seed's, whatever ran beside or before them.
func TestConcurrentCellsShareNoList(t *testing.T) {
	const cells = 3
	fc := eval.DefaultFreezeConfig(sockmig.IncrementalCollective, 8)
	fc.Repeats = 1
	fc.Workers = 1
	var pts [2][cells]*eval.FreezePoint
	var errs [2]error
	var wg sync.WaitGroup
	for i := range pts {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range pts[i] {
				if pts[i][k], errs[i] = eval.RunFreezePoint(fc); errs[i] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("freeze points failed: %v, %v", errs[0], errs[1])
	}
	for i := range pts {
		for k := range pts[i] {
			if !reflect.DeepEqual(pts[i][k].Runs, pts[0][0].Runs) {
				t.Fatalf("goroutine %d, cell %d: a run of the seed differs from the first", i, k)
			}
		}
	}
}

// TestRetireHandsListToNextCell: a retired pool's idle structs and
// payload arrays go to the reserve, and a pool whose own list is empty
// draws from it one item per miss. A drawn struct is homed in the
// drawing pool — the retired pool's home is never used again, not even
// by a stale reference's second Release — so Minted still counts the
// drawing stack's peak; the reserve never holds more than its cap.
func TestRetireHandsListToNextCell(t *testing.T) {
	netsim.EmptyReserve()
	defer netsim.EmptyReserve()
	var old netsim.Pool
	var stale []*netsim.Packet
	for range 3 {
		p := old.NewPacket()
		p.Payload = old.GetPayload(64)
		stale = append(stale, p)
	}
	for _, p := range stale {
		p.Release()
	}
	old.Retire()
	if got := old.Stats(); got != (netsim.PoolStats{PacketsMinted: 3, PayloadsMinted: 3}) {
		t.Fatalf("retired pool: %+v, want its Minted kept and nothing idle", got)
	}
	if pk, pl := netsim.ReserveLen(); pk != 3 || pl != 3 {
		t.Fatalf("reserve holds %d packets, %d payloads after the retire, want 3 and 3", pk, pl)
	}
	stale[0].Release() // a stale reference: a no-op, the struct stays filed once
	if pk, _ := netsim.ReserveLen(); pk != 3 {
		t.Fatalf("a stale Release moved the reserve to %d packets", pk)
	}

	var next netsim.Pool
	p := next.NewPacket()
	p.Payload = next.GetPayload(100)
	if !slices.Contains(stale, p) {
		t.Fatal("an empty pool minted a struct while the reserve held three")
	}
	q := p.Clone()
	r, err := next.Unmarshal(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	for i, pk := range []*netsim.Packet{p, q, r} {
		if netsim.HomeOf(pk) != &next {
			t.Fatalf("packet %d drawn from the reserve is homed in %p, want the drawing pool", i, netsim.HomeOf(pk))
		}
	}
	if got, want := next.Stats(), (netsim.PoolStats{PacketsMinted: 3, PayloadsMinted: 2}); got != want {
		t.Fatalf("drawing pool: %+v, want %+v", got, want)
	}
	for _, pk := range []*netsim.Packet{p, q, r} {
		pk.Release()
	}
	for range 3 { // the pool's own list first: its peak does not move
		next.NewPacket()
	}
	if got := next.Stats(); got.PacketsMinted != 3 || got.PacketsIdle != 0 {
		t.Fatalf("drawing pool after a second round: %+v, want its peak of 3 kept", got)
	}
	if pk, pl := netsim.ReserveLen(); pk != 0 || pl != 1 {
		t.Fatalf("reserve holds %d packets, %d payloads, want 0 and 1", pk, pl)
	}

	for range 2 {
		var big netsim.Pool
		held := make([]*netsim.Packet, netsim.ReservePackets+10)
		for i := range held {
			held[i] = big.NewPacket()
			if i < netsim.ReservePayloads+10 {
				held[i].Payload = big.GetPayload(8)
			}
		}
		for _, pk := range held {
			pk.Release()
		}
		big.Retire()
		if pk, pl := netsim.ReserveLen(); pk != netsim.ReservePackets || pl != netsim.ReservePayloads {
			t.Fatalf("reserve holds %d packets, %d payloads, want its cap %d and %d",
				pk, pl, netsim.ReservePackets, netsim.ReservePayloads)
		}
	}
}

// TestAllocGateReserveHit: a pool that finds its list empty and the
// reserve stocked draws a struct and a payload array and allocates
// nothing; it takes no more than it draws.
func TestAllocGateReserveHit(t *testing.T) {
	netsim.EmptyReserve()
	defer netsim.EmptyReserve()
	const n = 200
	var filler netsim.Pool
	minted := make([]*netsim.Packet, n)
	for i := range minted {
		minted[i] = filler.NewPacket()
		minted[i].Payload = filler.GetPayload(64)
	}
	for _, p := range minted {
		p.Release()
	}
	filler.Retire()
	var pl netsim.Pool
	held := make([]*netsim.Packet, 0, n)
	allocs := testing.AllocsPerRun(n/2, func() {
		p := pl.NewPacket()
		p.Payload = pl.GetPayload(64)
		held = append(held, p)
	})
	if allocs != 0 {
		t.Errorf("a reserve hit allocates %.1f objects, want 0", allocs)
	}
	if pk, pay := netsim.ReserveLen(); pk != n-len(held) || pay != n-len(held) {
		t.Errorf("reserve holds %d packets, %d payloads after %d draws of %d, want %d each", pk, pay, len(held), n, n-len(held))
	}
}

// TestLinkLossModel: every packet a lossy link is handed is delivered or
// counted as dropped by its fault program, the one loss model it has.
func TestLinkLossModel(t *testing.T) {
	s := simtime.NewScheduler()
	sw := netsim.NewSwitch(s)
	a := sw.Attach("a", netsim.MakeAddr(10, 0, 0, 1), netsim.GigabitEthernet)
	b := sw.Attach("b", netsim.MakeAddr(10, 0, 0, 2), netsim.GigabitEthernet)
	a.SetFault(&faults.Program{Seed: 17, BaseLoss: 0.2})
	got := 0
	b.SetHandler(netsim.HandlerFunc(func(p *netsim.Packet) { got++ }))
	const n = 2000
	for i := 0; i < n; i++ {
		a.Send(&netsim.Packet{SrcIP: a.Addr, DstIP: b.Addr})
	}
	s.Run()
	if a.FaultDropped == 0 || got == 0 {
		t.Fatalf("lossy link delivered %d and dropped %d of %d", got, a.FaultDropped, n)
	}
	if got+int(a.FaultDropped) != n {
		t.Fatalf("accounting: %d delivered + %d dropped != %d", got, a.FaultDropped, n)
	}
}
