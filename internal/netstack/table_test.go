package netstack

import (
	"fmt"
	"math/rand"
	"testing"

	"dvemig/internal/netsim"
	"dvemig/internal/simtime"
)

// The demux tables are checked differentially: every program of inserts,
// replacements, deletes and lookups runs against the ehash table and a
// map[FourTuple]*TCPSocket side by side, and against the port table and a
// map[uint16]*TCPSocket, and after every step the two of each pair must
// agree on everything a caller can observe. The same programs drive a
// stack's UDP side — datagrams demuxed into a few bound sockets, reads,
// and migrations of a socket with whatever its queue holds — against a
// queue of strings per port.

// demuxUniverse is the key set the programs draw from: the shape of a
// zone server's table (one local endpoint, sequential client ports), the
// near-misses that must stay distinct (same tuple on the stack's other
// local address, one port off on either side), and a run of keys whose
// hashes agree in their top 12 bits, so they chain in one bucket at any
// table size the tests reach.
func demuxUniverse() []FourTuple {
	base := FourTuple{LocalIP: netsim.MakeAddr(203, 0, 113, 10), RemoteIP: netsim.MakeAddr(198, 51, 100, 1),
		LocalPort: 7000, RemotePort: 40000}
	u := []FourTuple{base}
	for _, mut := range []func(*FourTuple){
		func(k *FourTuple) { k.LocalIP = netsim.MakeAddr(192, 168, 1, 1) },
		func(k *FourTuple) { k.LocalIP ^= 1 << 31 },
		func(k *FourTuple) { k.RemoteIP++ },
		func(k *FourTuple) { k.LocalPort++ },
		func(k *FourTuple) { k.RemotePort-- },
		func(k *FourTuple) { k.LocalPort, k.RemotePort = k.RemotePort, k.LocalPort },
	} {
		k := base
		mut(&k)
		u = append(u, k)
	}
	for i := 0; i < 512; i++ {
		k := base
		k.RemotePort = 32768 + uint16(i)
		u = append(u, k)
	}
	want := base.key().hash() >> 52
	for k, found := base, 0; found < 16; {
		k.RemotePort++
		if k.RemotePort == 0 {
			k.RemoteIP++
		}
		if k != base && k.key().hash()>>52 == want {
			u = append(u, k)
			found++
		}
	}
	return u
}

type demuxPair struct {
	t        *testing.T
	universe []FourTuple

	tab ehashTable
	ref map[FourTuple]*TCPSocket

	ports portTable[TCPSocket]
	pref  map[uint16]*TCPSocket

	// The UDP side: st demuxes into the sockets hashed in its udph, uref
	// holds each port's socket and the payloads it should still deliver,
	// oldest first. lent is the last datagram a read returned, with the
	// text it must keep showing until its socket is next read.
	st      *Stack
	uref    map[uint16]*udpRef
	lent    []byte
	lentMsg string
}

type udpRef struct {
	us    *UDPSocket
	queue []string
}

func newDemuxPair(t *testing.T) *demuxPair {
	return &demuxPair{t: t, universe: demuxUniverse(),
		ref: map[FourTuple]*TCPSocket{}, pref: map[uint16]*TCPSocket{},
		st: NewStack(simtime.NewScheduler(), "udp", 0), uref: map[uint16]*udpRef{}}
}

func sockFor(k FourTuple) *TCPSocket {
	return &TCPSocket{LocalIP: k.LocalIP, RemoteIP: k.RemoteIP, LocalPort: k.LocalPort, RemotePort: k.RemotePort}
}

// step applies one operation to both sides. Ops 0–2 are put (insert, or
// replace when the key is hashed), delete and lookup on the ehash pair;
// 3–5 the same on the port pair, with the key's remote port as the port;
// 6–8 a datagram for, a read from and a migration of the UDP socket on
// one of four ports.
func (d *demuxPair) step(op byte, idx int) {
	k := d.universe[idx%len(d.universe)]
	port := 5000 + uint16(idx%4)
	u := d.uref[port]
	switch op % 9 {
	case 6:
		if u == nil {
			u = &udpRef{us: NewUDPSocket(d.st)}
			if err := u.us.Bind(k.LocalIP, port); err != nil {
				d.t.Fatal(err)
			}
			d.uref[port] = u
		}
		msg := fmt.Sprintf("dgram %d for %d", idx, port)
		p := d.st.pool.NewPacket()
		p.Proto, p.SrcIP, p.SrcPort, p.DstIP, p.DstPort = netsim.ProtoUDP, k.RemoteIP, k.RemotePort, k.LocalIP, port
		p.Payload = d.st.pool.GetPayload(len(msg))
		copy(p.Payload, msg)
		d.st.demux(p)
		u.queue = append(u.queue, msg)
	case 7:
		if u == nil {
			return
		}
		dg, ok := u.us.Recv()
		if d.lent = nil; ok != (len(u.queue) > 0) {
			d.t.Fatalf("port %d: Recv ok=%v with %d datagrams due", port, ok, len(u.queue))
		}
		if ok {
			d.lent, d.lentMsg, u.queue = dg.Payload, u.queue[0], u.queue[1:]
		}
	case 8:
		// Migration in place: unhash, checkpoint through the wire form,
		// restore on the same stack. The socket left behind keeps its
		// packets (and a loan it made stays good).
		if u == nil {
			return
		}
		u.us.Unhash()
		snap, err := DecodeUDPSnapshot(SnapshotUDP(u.us).Encode())
		if err != nil {
			d.t.Fatal(err)
		}
		if u.us, err = RestoreUDP(d.st, snap); err != nil {
			d.t.Fatal(err)
		}
	}
	switch op % 9 {
	case 0:
		sk := sockFor(k)
		d.tab.put(sk)
		d.ref[k] = sk
	case 1:
		d.tab.del(k.key())
		delete(d.ref, k)
	case 2:
		if got, want := d.tab.get(k.key()), d.ref[k]; got != want {
			d.t.Fatalf("lookup %v: table %p, map %p", k, got, want)
		}
	case 3:
		sk := sockFor(k)
		d.ports.set(k.RemotePort, sk)
		d.pref[k.RemotePort] = sk
	case 4:
		d.ports.set(k.RemotePort, nil)
		delete(d.pref, k.RemotePort)
	case 5:
		if got, want := d.ports.get(k.RemotePort), d.pref[k.RemotePort]; got != want {
			d.t.Fatalf("port %d: table %p, map %p", k.RemotePort, got, want)
		}
	}
}

// check compares everything observable: the count, every key of the
// universe (hits and misses), the set EstablishedSockets would return,
// the load rule, and every port of the universe.
func (d *demuxPair) check() {
	d.t.Helper()
	if d.tab.len() != len(d.ref) {
		d.t.Fatalf("len: table %d, map %d", d.tab.len(), len(d.ref))
	}
	for _, k := range d.universe {
		if got, want := d.tab.get(k.key()), d.ref[k]; got != want {
			d.t.Fatalf("lookup %v: table %p, map %p", k, got, want)
		}
		if got, want := d.ports.get(k.RemotePort), d.pref[k.RemotePort]; got != want {
			d.t.Fatalf("port %d: table %p, map %p", k.RemotePort, got, want)
		}
	}
	all := d.tab.appendAll(nil)
	if len(all) != len(d.ref) {
		d.t.Fatalf("table enumerates %d sockets, map holds %d", len(all), len(d.ref))
	}
	for _, sk := range all {
		if d.ref[sk.Tuple()] != sk {
			d.t.Fatalf("table enumerates a socket for %v the map does not hold", sk.Tuple())
		}
	}
	if n := len(d.tab.buckets); n != 0 && (n&(n-1) != 0 || d.tab.n > n/2) {
		d.t.Fatalf("%d sockets in %d buckets: want a power of two at most half full", d.tab.n, n)
	}
	// Reads of other sockets, arrivals and migrations all leave a loan good
	// (the package runs with released payloads poisoned).
	if d.lent != nil && string(d.lent) != d.lentMsg {
		d.t.Fatalf("lent datagram reads %q, want %q", d.lent, d.lentMsg)
	}
	for port := uint16(5000); port < 5004; port++ {
		u := d.uref[port]
		if u == nil {
			if d.st.udph.get(port) != nil {
				d.t.Fatalf("UDP port %d is hashed, nothing was bound", port)
			}
			continue
		}
		if d.st.udph.get(port) != u.us || u.us.QueueLen() != len(u.queue) {
			d.t.Fatalf("UDP port %d: hashed %p want %p, %d queued want %d",
				port, d.st.udph.get(port), u.us, u.us.QueueLen(), len(u.queue))
		}
		for i, p := range u.us.ReceiveQueue() {
			if string(p.Payload) != u.queue[i] {
				d.t.Fatalf("UDP port %d slot %d holds %q, want %q", port, i, p.Payload, u.queue[i])
			}
		}
	}
}

func (d *demuxPair) run(prog []byte) {
	for i := 0; i+2 < len(prog); i += 3 {
		d.step(prog[i], int(prog[i+1])<<8|int(prog[i+2]))
		d.check()
	}
}

func TestDemuxTablesMatchMaps(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		d := newDemuxPair(t)
		// Phases lean towards filling, then draining, then churn, so the
		// table grows across deletes and chains lose heads, middles and
		// tails at every size.
		for _, putShare := range []int{70, 25, 50} {
			for i := 0; i < 700; i++ {
				var op byte
				switch r := rnd.Intn(100); {
				case r < putShare:
					op = 0
				case r < 85:
					op = 1
				default:
					op = 2
				}
				switch rnd.Intn(8) {
				case 0, 1:
					op += 3
				case 2:
					op += 6
				}
				d.step(op, rnd.Intn(len(d.universe)))
				d.check()
			}
		}
	}
}

// TestEhashChainSurgery deletes the head, the middle and the tail of one
// chain, in every order, replaces a chained socket in place, and grows
// the table while the chain is one short.
func TestEhashChainSurgery(t *testing.T) {
	u := demuxUniverse()
	chain := u[len(u)-3:] // three keys of the colliding run
	for _, order := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		d := newDemuxPair(t)
		for i := range u[:len(u)-16] {
			if i%37 == 0 {
				d.step(0, i) // a few bystanders in other buckets
			}
		}
		at := func(k FourTuple) int {
			for i := range u {
				if u[i] == k {
					return i
				}
			}
			panic("not in universe")
		}
		for _, k := range chain {
			d.step(0, at(k))
		}
		d.check()
		if b := d.tab.buckets[chain[0].key().hash()>>d.tab.shift]; b == nil || b.ehashNext == nil || b.ehashNext.ehashNext == nil {
			t.Fatal("the three colliding keys do not share a chain")
		}
		d.step(0, at(chain[order[1]])) // replace in place
		d.check()
		d.step(1, at(chain[order[0]]))
		d.check()
		// Grow across the delete: fill until the bucket array doubles.
		for i, before := 0, len(d.tab.buckets); len(d.tab.buckets) == before; i++ {
			d.step(0, 7+i)
			d.check()
		}
		d.step(1, at(chain[order[1]]))
		d.check()
		d.step(1, at(chain[order[2]]))
		d.check()
		d.step(1, at(chain[order[2]])) // deleting what is gone is a no-op
		d.check()
	}
}

func FuzzDemuxTable(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 1, 1, 0, 0, 2, 0, 1})
	f.Add([]byte{0, 2, 22, 0, 2, 23, 0, 2, 24, 1, 2, 23, 0, 2, 23, 1, 2, 24, 1, 2, 22})
	f.Add([]byte{3, 0, 9, 5, 0, 9, 4, 0, 9, 5, 0, 9})
	f.Add([]byte{6, 0, 1, 6, 0, 1, 7, 0, 1, 8, 0, 1, 6, 0, 5, 7, 0, 1, 7, 0, 5, 8, 0, 5, 7, 0, 1, 7, 0, 1})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 3*512 {
			prog = prog[:3*512]
		}
		newDemuxPair(t).run(prog)
	})
}

// BenchmarkDemuxBroadcastMiss measures what two nodes in three pay for
// every client packet on the broadcast cluster: a full demux — ehash,
// then bhash — of a segment that belongs to a connection owned elsewhere,
// on a node with 64 connections and a listener of its own.
func BenchmarkDemuxBroadcastMiss(b *testing.B) {
	st := NewStack(simtime.NewScheduler(), "s", 0)
	for i := 0; i < 64; i++ {
		sk := NewTCPSocket(st)
		sk.State = TCPEstablished
		sk.LocalIP, sk.LocalPort = addrA, 7000
		sk.RemoteIP, sk.RemotePort = netsim.MakeAddr(198, 51, 100, 1), uint16(32768+i)
		st.ehash.put(sk)
	}
	if err := NewTCPSocket(st).Listen(addrA, 7000); err != nil {
		b.Fatal(err)
	}
	p := &netsim.Packet{Proto: netsim.ProtoTCP, DstIP: addrA, DstPort: 7001,
		SrcIP: netsim.MakeAddr(198, 51, 100, 2), SrcPort: 40000, Flags: netsim.FlagACK}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.SrcPort = uint16(32768 + i&1023)
		st.demux(p)
	}
	if st.Stats.NoSocketDrops != uint64(b.N) {
		b.Fatalf("%d of %d packets missed", st.Stats.NoSocketDrops, b.N)
	}
}
