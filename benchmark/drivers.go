package main

import (
	"fmt"
	"runtime"
	"time"

	"dvemig/internal/capture"
	"dvemig/internal/ckpt"
	"dvemig/internal/eval"
	"dvemig/internal/migration"
	"dvemig/internal/netsim"
	"dvemig/internal/netstack"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
	"dvemig/internal/sockmig"
	"dvemig/internal/xlat"
)

// drivers measures each layer from outside: every driver builds a small
// fixture, calls the layer's exported API a fixed number of times under
// a benchmark-owned span and reports a rate. They are independent of
// the workload and of -seed.
type drivers struct {
	// scale multiplies every op count and reps is how many timed batches
	// a rate is the median of; the smoke test runs at 1/100 and 1.
	scale float64
	reps  int
	tr    *tracer
	batch int
	out   map[string]float64
}

func runDrivers(scale float64, reps int, tr *tracer) map[string]float64 {
	d := &drivers{scale: scale, reps: reps, tr: tr, out: map[string]float64{}}
	d.simtime()
	d.netsim()
	d.netstack()
	d.proc()
	d.ckpt()
	d.sockmig()
	d.capture()
	d.xlat()
	d.engine()
	d.observe()
	return d.out
}

func (d *drivers) n(full int) int {
	if n := int(float64(full) * d.scale); n > 1 {
		return n
	}
	return 1
}

// timed runs one driver batch under its own root span and returns its
// wall time in seconds.
func (d *drivers) timed(name string, run func()) float64 {
	d.batch++
	id := d.tr.begin(0, d.batch, "drv:"+name)
	t0 := time.Now()
	run()
	el := time.Since(t0).Seconds()
	d.tr.end(id)
	return el
}

// seconds returns the median wall time of d.reps batches of the function
// prepare returns. prepare builds the fixture and is not timed.
func (d *drivers) seconds(name string, prepare func() func()) float64 {
	var secs []float64
	for r := 0; r < d.reps; r++ {
		secs = append(secs, d.timed(name, prepare()))
	}
	return median(secs)
}

// mallocs counts heap allocations made by fn.
func mallocs(fn func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs - m0.Mallocs)
}

// must panics on a fixture error: the fixtures are deterministic, so a
// failure here is a bug in the driver or the layer, not an input.
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("benchmark driver fixture: %v", err))
	}
}

func want(ok bool, format string, args ...any) {
	if !ok {
		panic("benchmark driver: " + fmt.Sprintf(format, args...))
	}
}

func (d *drivers) simtime() {
	n := d.n(1_000_000)
	// A 64-event self-rescheduling ring: tickers, process loops and
	// packet deliveries all look like this to the scheduler.
	d.out["simtime.ring_events_per_s"] = float64(n) / d.seconds("simtime.ring", func() func() {
		s := simtime.NewScheduler()
		fired := 0
		var arm func(simtime.Duration)
		arm = func(p simtime.Duration) {
			s.After(p, "bench.ring", func() { fired++; arm(p) })
		}
		for i := 0; i < 64; i++ {
			arm(time.Duration(i+1) * time.Microsecond)
		}
		return func() {
			for fired < n {
				s.RunFor(64 * time.Microsecond)
			}
		}
	})
	// Arm + cancel against a 1024-deep heap: the TCP retransmission
	// timer's pattern on every ACK.
	d.out["simtime.timer_cancels_per_s"] = float64(n) / d.seconds("simtime.cancel", func() func() {
		s := simtime.NewScheduler()
		for i := 0; i < 1024; i++ {
			s.After(time.Duration(i+1)*time.Hour, "bench.backdrop", func() {})
		}
		return func() {
			for i := 0; i < n; i++ {
				s.Cancel(s.After(time.Second, "bench.rto", func() {}))
			}
			want(s.Pending() == 1024, "pending = %d after cancels", s.Pending())
		}
	})
	// 10 000 pending tickers: the heap depth of the DVE run.
	d.out["simtime.deep_heap_events_per_s"] = float64(n) / d.seconds("simtime.deep_heap", func() func() {
		s := simtime.NewScheduler()
		fired := 0
		for i := 0; i < 10_000; i++ {
			simtime.NewTicker(s, 10*time.Millisecond+time.Duration(i)*time.Microsecond, "bench.tick", func() { fired++ }).Start()
		}
		return func() {
			for fired < n {
				s.RunFor(10 * time.Millisecond)
			}
		}
	})
}

// sendBurst pushes n size-byte packets into nic, draining the scheduler
// every 256 so the event queue stays as shallow as a real run's.
func sendBurst(s *simtime.Scheduler, nic *netsim.NIC, n, size int, fill func(i int, p *netsim.Packet)) {
	for i := 0; i < n; i++ {
		p := netsim.NewPacket()
		p.SrcIP = nic.Addr
		p.Payload = netsim.GetPayload(size)
		fill(i, p)
		nic.Send(p)
		if i%256 == 255 {
			s.Run()
		}
	}
	s.Run()
}

func (d *drivers) netsim() {
	n := d.n(400_000)
	addrA, addrB := netsim.MakeAddr(10, 0, 0, 1), netsim.MakeAddr(10, 0, 0, 2)
	unicast := func(size int) float64 {
		return float64(n) / d.seconds(fmt.Sprintf("netsim.unicast%d", size), func() func() {
			s := simtime.NewScheduler()
			sw := netsim.NewSwitch(s)
			a := sw.Attach("a", addrA, netsim.GigabitEthernet)
			b := sw.Attach("b", addrB, netsim.GigabitEthernet)
			got := 0
			b.SetHandler(netsim.HandlerFunc(func(p *netsim.Packet) { got++; p.Release() }))
			return func() {
				sendBurst(s, a, n, size, func(_ int, p *netsim.Packet) { p.DstIP = addrB })
				want(got == n, "switch delivered %d of %d", got, n)
			}
		})
	}
	d.out["netsim.unicast64_pkts_per_s"] = unicast(64)
	d.out["netsim.unicast1460_pkts_per_s"] = unicast(1460)

	// The public side: an external host sends to the cluster address and
	// the router clones the packet to each of 5 server NICs.
	nb := d.n(150_000)
	clusterIP := netsim.MakeAddr(203, 0, 113, 10)
	bcast := func(size int) func() func() {
		return func() func() {
			s := simtime.NewScheduler()
			r := netsim.NewBroadcastRouter(s, clusterIP)
			got := 0
			for i := 0; i < 5; i++ {
				r.AttachServer(fmt.Sprintf("srv%d", i), netsim.GigabitEthernet).
					SetHandler(netsim.HandlerFunc(func(p *netsim.Packet) { got++; p.Release() }))
			}
			ext := r.AttachExternal("gen", netsim.MakeAddr(198, 51, 100, 1), netsim.GigabitEthernet)
			return func() {
				sendBurst(s, ext, nb, size, func(_ int, p *netsim.Packet) { p.DstIP = clusterIP })
				want(got == 5*nb, "router delivered %d of %d", got, 5*nb)
			}
		}
	}
	d.out["netsim.bcast64_pkts_per_s"] = float64(nb) / d.seconds("netsim.bcast64", bcast(64))
	d.out["netsim.bcast1460_mb_per_s"] = float64(nb) * 1460 / 1e6 / d.seconds("netsim.bcast1460", bcast(1460))
	d.out["netsim.allocs_per_pkt_bcast"] = mallocs(bcast(64)()) / float64(nb)
}

// stackPair is two hosts on one switch.
func stackPair() (s *simtime.Scheduler, a, b *netstack.Stack, addrB netsim.Addr) {
	s = simtime.NewScheduler()
	sw := netsim.NewSwitch(s)
	lan := netsim.MakeAddr(10, 0, 0, 0)
	addrA := netsim.MakeAddr(10, 0, 0, 1)
	addrB = netsim.MakeAddr(10, 0, 0, 2)
	a, b = netstack.NewStack(s, "a", 1000), netstack.NewStack(s, "b", 2000)
	na := sw.Attach("a.eth0", addrA, netsim.GigabitEthernet)
	nb := sw.Attach("b.eth0", addrB, netsim.GigabitEthernet)
	a.AttachNIC(na, addrA)
	b.AttachNIC(nb, addrB)
	a.AddRoute(lan, 24, na, addrA)
	b.AddRoute(lan, 24, nb, addrB)
	return s, a, b, addrB
}

// connectFlows opens flows TCP connections from a to a listener on b;
// the accepting side consumes whatever arrives and counts the bytes.
func connectFlows(s *simtime.Scheduler, a, b *netstack.Stack, addrB netsim.Addr, flows int, rcvd *int) []*netstack.TCPSocket {
	lst := netstack.NewTCPSocket(b)
	must(lst.Listen(addrB, 9000))
	accepted := 0
	lst.OnAccept = func(ch *netstack.TCPSocket) {
		accepted++
		ch.OnReadable = func() { *rcvd += len(ch.Recv()) }
	}
	clients := make([]*netstack.TCPSocket, flows)
	for i := range clients {
		clients[i] = netstack.NewTCPSocket(a)
		must(clients[i].Connect(addrB, 9000))
	}
	s.RunFor(time.Second)
	want(accepted == flows, "%d of %d connections established", accepted, flows)
	return clients
}

func (d *drivers) netstack() {
	// One bulk flow: full-MSS segments, the checkpoint transfer's shape.
	mib := d.n(32)
	d.out["netstack.bulk_mb_per_s"] = float64(mib) * (1 << 20) / 1e6 / d.seconds("netstack.bulk", func() func() {
		s, a, b, addrB := stackPair()
		rcvd := 0
		cli := connectFlows(s, a, b, addrB, 1, &rcvd)[0]
		msg := make([]byte, 1<<20)
		return func() {
			for i := 0; i < mib; i++ {
				must(cli.Send(msg))
				s.RunFor(5 * time.Second)
			}
			want(rcvd == mib<<20, "bulk flow delivered %d bytes", rcvd)
		}
	})

	// 64 flows of 256-byte messages: the game-update shape.
	rounds := d.n(1500)
	small := func() func() {
		s, a, b, addrB := stackPair()
		rcvd := 0
		clients := connectFlows(s, a, b, addrB, 64, &rcvd)
		msg := make([]byte, 256)
		return func() {
			for r := 0; r < rounds; r++ {
				for _, cli := range clients {
					must(cli.Send(msg))
				}
				s.RunFor(10 * time.Millisecond)
			}
			want(rcvd == rounds*64*256, "small flows delivered %d bytes", rcvd)
		}
	}
	d.out["netstack.small_msgs_per_s"] = float64(rounds*64) / d.seconds("netstack.small", small)
	d.out["netstack.allocs_per_small_msg"] = mallocs(small()) / float64(rounds*64)

	conns := d.n(16_000)
	d.out["netstack.connect_per_s"] = float64(conns) / d.seconds("netstack.connect", func() func() {
		s, a, b, addrB := stackPair()
		lst := netstack.NewTCPSocket(b)
		must(lst.Listen(addrB, 9000))
		accepted := 0
		lst.OnAccept = func(*netstack.TCPSocket) { accepted++ }
		return func() {
			for i := 0; i < conns; i++ {
				must(netstack.NewTCPSocket(a).Connect(addrB, 9000))
				if i%64 == 63 {
					s.RunFor(10 * time.Millisecond)
				}
			}
			s.RunFor(time.Second)
			want(accepted == conns, "%d of %d connects accepted", accepted, conns)
		}
	})

	// The per-socket migration unit: snapshot, encode, decode, restore.
	socks := d.n(20_000)
	d.out["netstack.snapshot_restore_socks_per_s"] = float64(socks) / d.seconds("netstack.snapshot_restore", func() func() {
		s, a, b, addrB := stackPair()
		rcvd := 0
		cli := connectFlows(s, a, b, addrB, 1, &rcvd)[0]
		cli.Unhash()
		return func() {
			for i := 0; i < socks; i++ {
				snap, err := netstack.DecodeTCPSnapshot(netstack.SnapshotTCP(cli).Encode())
				must(err)
				sk, err := netstack.RestoreTCP(a, snap)
				must(err)
				sk.Unhash()
			}
		}
	})
}

// memPages is mem128m's working set: a 32 768-page mapping with every
// fourth page resident, one byte written in each.
const (
	memPages     = 32768
	memResident  = memPages / 4
	memResidentB = memResident * proc.PageSize
)

func mem128mSpace() *proc.AddressSpace {
	as := proc.NewAddressSpace()
	heap := as.Mmap(memPages*proc.PageSize, "rw-")
	for i := uint64(0); i < memPages; i += 4 {
		must(as.Write(heap.Start+i*proc.PageSize, []byte{byte(i)}))
	}
	return as
}

func (d *drivers) proc() {
	passes := d.n(40)
	d.out["proc.touch_pages_per_s"] = float64(passes*memPages) / d.seconds("proc.touch", func() func() {
		as := proc.NewAddressSpace()
		heap := as.Mmap(memPages*proc.PageSize, "rw-")
		touchAll := func() {
			for i := uint64(0); i < memPages; i++ {
				must(as.Touch(heap.Start + i*proc.PageSize))
			}
		}
		touchAll() // materialize, so the timed passes hit resident pages
		return func() {
			for p := 0; p < passes; p++ {
				touchAll()
			}
		}
	})
	// One precopy round's scan: collect the dirty quarter of 32 768
	// resident pages, then clear the bits.
	d.out["proc.dirty_scan_pages_per_s"] = float64(memPages) / d.seconds("proc.dirty_scan", func() func() {
		as := proc.NewAddressSpace()
		heap := as.Mmap(memPages*proc.PageSize, "rw-")
		for i := uint64(0); i < memPages; i++ {
			must(as.Touch(heap.Start + i*proc.PageSize))
		}
		as.ClearDirty()
		for i := uint64(0); i < memPages; i += 4 {
			must(as.Touch(heap.Start + i*proc.PageSize))
		}
		return func() {
			want(len(as.DirtyPages()) == memResident, "dirty scan found the wrong page count")
			as.ClearDirty()
		}
	})
}

// sockFixture is a process on node 0 of a two-node cluster holding
// conns established client connections and pages resident pages.
type sockFixture struct {
	c       *proc.Cluster
	p       *proc.Process
	clients []*netstack.TCPSocket
}

func newSockFixture(conns, pages int) *sockFixture {
	c := proc.NewCluster(simtime.NewScheduler(), 2)
	src := c.Nodes[0]
	f := &sockFixture{c: c, p: src.Spawn("drv", 1)}
	heap := f.p.AS.Mmap(uint64(pages)*proc.PageSize, "rw-")
	for i := 0; i < pages; i++ {
		must(f.p.AS.Write(heap.Start+uint64(i)*proc.PageSize, []byte{byte(i), 1}))
	}
	lst := netstack.NewTCPSocket(src.Stack)
	must(lst.Listen(c.ClusterIP, 7000))
	lst.OnAccept = func(ch *netstack.TCPSocket) { f.p.FDs.Install(&proc.TCPFile{Sock: ch}) }
	host := c.NewExternalHost("players")
	for i := 0; i < conns; i++ {
		cli := netstack.NewTCPSocket(host)
		must(cli.Connect(c.ClusterIP, 7000))
		f.clients = append(f.clients, cli)
	}
	c.Sched.RunFor(2 * time.Second)
	tcp, _ := f.p.Sockets()
	want(len(tcp) == conns, "%d of %d fixture connections established", len(tcp), conns)
	return f
}

// discard takes a process restored on node n back out: its sockets
// leave the stack's tables so the next restore of the same flows fits.
func discard(n *proc.Node, p *proc.Process) {
	tcp, _ := p.Sockets()
	for _, sk := range tcp {
		sk.Unhash()
	}
	n.Detach(p)
}

func (d *drivers) ckpt() {
	var enc []byte
	encode := func() func() {
		as, tr := mem128mSpace(), ckpt.NewTracker()
		return func() { enc = tr.Delta(as).EncodeInto(enc) }
	}
	apply := func() func() {
		dst := proc.NewAddressSpace()
		return func() {
			delta, err := ckpt.DecodeMemDelta(enc)
			must(err)
			must(ckpt.ApplyDelta(dst, delta))
			want(dst.ResidentBytes() == memResidentB, "applied delta left %d resident bytes", dst.ResidentBytes())
		}
	}
	rawMB := float64(memResidentB) / 1e6
	d.out["ckpt.delta_encode_mb_per_s"] = rawMB / d.seconds("ckpt.delta_encode", encode)
	d.out["ckpt.codec_ratio"] = float64(len(enc)) / memResidentB
	d.out["ckpt.delta_decode_apply_mb_per_s"] = rawMB / d.seconds("ckpt.delta_decode_apply", apply)
	d.out["ckpt.allocs_per_mb"] = (mallocs(encode()) + mallocs(apply())) / rawMB

	// The stop-and-copy path: a whole process image with 256 pages and
	// 64 sockets, through the wire format and back onto another node.
	trips := d.n(40)
	d.out["ckpt.image_roundtrip_ms"] = 1e3 / float64(trips) * d.seconds("ckpt.image_roundtrip", func() func() {
		f := newSockFixture(64, 256)
		dstNode := f.c.Nodes[1]
		return func() {
			for i := 0; i < trips; i++ {
				img, err := ckpt.DecodeImage(ckpt.Checkpoint(f.p).Encode())
				must(err)
				p, err := ckpt.Restore(dstNode, img)
				must(err)
				tcp, _ := p.Sockets()
				want(len(tcp) == 64 && p.AS.ResidentBytes() == 256*proc.PageSize, "image round trip lost state")
				discard(dstNode, p)
			}
		}
	})
}

func (d *drivers) sockmig() {
	const socks = 1024
	f := newSockFixture(socks, 0)
	dstNode := f.c.Nodes[1]
	rounds := d.n(20)
	var full []byte
	d.out["sockmig.full_delta_socks_per_s"] = float64(rounds*socks) / d.seconds("sockmig.full_delta", func() func() {
		return func() {
			for r := 0; r < rounds; r++ {
				full = sockmig.FullDelta(f.p).EncodeInto(full)
			}
		}
	})
	d.out["sockmig.bytes_per_sock"] = float64(len(full)) / socks

	// An incremental round after one in eight sockets received data.
	tracker := sockmig.NewTracker()
	tracker.Delta(f.p, false)
	var incr []byte
	d.out["sockmig.incr_delta_socks_per_s"] = socks / d.seconds("sockmig.incr_delta", func() func() {
		for i := 0; i < socks; i += 8 {
			must(f.clients[i].Send(make([]byte, 256)))
		}
		f.c.Sched.RunFor(10 * time.Millisecond)
		return func() {
			delta := tracker.Delta(f.p, false)
			want(len(delta.Socks) == socks/8, "incremental delta carries %d sockets", len(delta.Socks))
			incr = delta.EncodeInto(incr)
		}
	})

	d.out["sockmig.restore_socks_per_s"] = float64(rounds*socks) / d.seconds("sockmig.restore", func() func() {
		return func() {
			for r := 0; r < rounds; r++ {
				delta, err := sockmig.DecodeSockDelta(full)
				must(err)
				store := sockmig.NewStore()
				must(store.Apply(delta))
				p := dstNode.Spawn("restored", 1)
				tcp, _, err := store.RestoreAll(dstNode.Stack, p, sockmig.RestoreOptions{})
				must(err)
				want(len(tcp) == socks, "restored %d sockets", len(tcp))
				discard(dstNode, p)
			}
		}
	})
}

func (d *drivers) capture() {
	// Packets for a frozen connection arrive by broadcast, are stolen on
	// LOCAL_IN into the filter's queue and later reinjected in order.
	n := d.n(20_000)
	fixture := func() (svc *capture.Service, filter *capture.Filter, enqueue func()) {
		c := proc.NewCluster(simtime.NewScheduler(), 1)
		gen := c.Router.AttachExternal("gen", netsim.MakeAddr(198, 51, 100, 1), netsim.GigabitEthernet)
		svc = capture.NewService(c.Nodes[0].Stack)
		filter = svc.Enable(netsim.FlowKey{RemoteIP: gen.Addr, RemotePort: 40000, LocalPort: 7000, Proto: netsim.ProtoTCP})
		return svc, filter, func() {
			sendBurst(c.Sched, gen, n, 64, func(i int, p *netsim.Packet) {
				p.DstIP, p.Proto = c.ClusterIP, netsim.ProtoTCP
				p.SrcPort, p.DstPort, p.Seq = 40000, 7000, uint32(i)
			})
			want(filter.QueueLen() == n, "captured %d of %d", filter.QueueLen(), n)
		}
	}
	d.out["capture.enqueue_pkts_per_s"] = float64(n) / d.seconds("capture.enqueue", func() func() {
		_, _, enqueue := fixture()
		return enqueue
	})
	d.out["capture.reinject_pkts_per_s"] = float64(n) / d.seconds("capture.reinject", func() func() {
		svc, filter, enqueue := fixture()
		enqueue()
		return func() {
			got, err := svc.ReinjectAndDisable(filter)
			must(err)
			want(got == n, "reinjected %d of %d", got, n)
		}
	})
}

func (d *drivers) xlat() {
	const rules = 1024
	type fixture struct {
		c  *proc.Cluster
		xl *xlat.Translator
	}
	ruleOf := func(c *proc.Cluster, i int) xlat.Rule {
		return xlat.Rule{Proto: netsim.ProtoTCP, OldAddr: c.Nodes[0].LocalIP, NewAddr: c.Nodes[1].LocalIP,
			LocalPort: 3306, RemotePort: uint16(20000 + i)}
	}
	newFixture := func() fixture {
		c := proc.NewCluster(simtime.NewScheduler(), 3)
		return fixture{c: c, xl: xlat.NewTranslator(c.Nodes[2].Stack)}
	}
	install := func(f fixture) {
		for i := 0; i < rules; i++ {
			must(f.xl.Install(ruleOf(f.c, i)))
		}
	}
	d.out["xlat.install_rules_per_s"] = rules / d.seconds("xlat.install", func() func() {
		f := newFixture()
		return func() { install(f) }
	})
	// Outbound packets of 1024 translated flows, rewritten on LOCAL_OUT
	// and delivered to the node the flow moved to.
	n := d.n(50_000)
	d.out["xlat.translate_pkts_per_s"] = float64(n) / d.seconds("xlat.translate", func() func() {
		f := newFixture()
		install(f)
		peer, moved := f.c.Nodes[2], f.c.Nodes[1]
		return func() {
			for i := 0; i < n; i++ {
				p := netsim.NewPacket()
				p.SrcIP, p.DstIP, p.Proto = peer.LocalIP, f.c.Nodes[0].LocalIP, netsim.ProtoTCP
				p.SrcPort, p.DstPort = 3306, uint16(20000+i%rules)
				p.Payload = netsim.GetPayload(64)
				peer.Stack.TransmitRaw(p)
				if i%256 == 255 {
					f.c.Sched.Run()
				}
			}
			f.c.Sched.Run()
			want(moved.LocalNIC.RxPackets == uint64(n), "translated packets reached the new node: %d of %d", moved.LocalNIC.RxPackets, n)
		}
	})
}

func (d *drivers) engine() {
	// One whole 8-connection live migration per memory-movement strategy.
	for _, name := range migration.StrategyNames() {
		mig, err := migration.StrategyByName(name)
		must(err)
		d.out["migration.engine8_ms."+name] = 1e3 * d.seconds("migration.engine8."+name, func() func() {
			fc := eval.DefaultFreezeConfig(sockmig.IncrementalCollective, 8)
			fc.Repeats, fc.Workers = 1, 1
			fc.MigCfg.Mig = mig
			return func() {
				_, err := eval.RunFreezePoint(fc)
				must(err)
			}
		})
	}
}

func (d *drivers) observe() {
	// zone64 with and without the observability plane, alternating.
	fc := eval.DefaultFreezeConfig(sockmig.IncrementalCollective, 64)
	fc.Repeats, fc.Workers = 1, 1
	var off, on []float64
	for i := 0; i < d.n(6); i++ {
		fc.Seed = uint64(i)
		for _, observe := range []bool{false, true} {
			fc.Observe = observe
			el := d.timed(fmt.Sprintf("obs.zone64.observe=%t", observe), func() {
				_, err := eval.RunFreezePoint(fc)
				must(err)
			})
			if observe {
				on = append(on, el)
			} else {
				off = append(off, el)
			}
		}
	}
	d.out["obs.observe_overhead_pct"] = (median(on)/median(off) - 1) * 100
}
