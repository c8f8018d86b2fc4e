package netsim

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"dvemig/internal/simtime"
)

func TestAddrString(t *testing.T) {
	a := MakeAddr(192, 168, 0, 1)
	if a.String() != "192.168.0.1" {
		t.Fatalf("got %s", a)
	}
	if MakeAddr(10, 0, 0, 255).String() != "10.0.0.255" {
		t.Fatal("dotted quad wrong")
	}
}

func TestPacketMarshalRoundTrip(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, seq, ack, tsv, tse uint32, flags, proto byte, payload []byte) bool {
		if len(payload) == 0 {
			payload = nil // wire format cannot distinguish nil from empty
		}
		p := &Packet{
			SrcIP: Addr(src), DstIP: Addr(dst), Proto: proto, TTL: 64,
			SrcPort: sp, DstPort: dp, Seq: seq, Ack: ack, Flags: flags,
			Window: 65535, TSVal: tsv, TSEcr: tse, Payload: payload,
		}
		p.FixChecksum()
		q, err := Unmarshal(p.Marshal())
		if err != nil {
			return false
		}
		p.Dst = nil
		q.Dst = nil
		return reflect.DeepEqual(p, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalShortPacket(t *testing.T) {
	if _, err := Unmarshal(make([]byte, 10)); err == nil {
		t.Fatal("short packet accepted")
	}
}

func TestChecksumDetectsMutation(t *testing.T) {
	p := &Packet{SrcIP: 1, DstIP: 2, Proto: ProtoTCP, SrcPort: 80, DstPort: 81, Payload: []byte("hello")}
	p.FixChecksum()
	if !p.ChecksumOK() {
		t.Fatal("fresh checksum invalid")
	}
	p.DstIP = 3 // what a translation filter does before fixing the checksum
	if p.ChecksumOK() {
		t.Fatal("checksum did not detect rewritten destination")
	}
	p.FixChecksum()
	if !p.ChecksumOK() {
		t.Fatal("re-fixed checksum invalid")
	}
}

// TestCloneSharesPayloadNotHeader pins what Clone means: the header is the
// clone's own, the payload buffer is shared and counted, and the last
// Release — in any order — is the one that recycles it.
func TestCloneSharesPayloadNotHeader(t *testing.T) {
	p := NewPacket()
	p.SrcIP, p.DstIP, p.Proto, p.Seq = 1, 2, ProtoTCP, 100
	p.Dst = &DstEntry{NextHop: 9}
	p.Payload = GetPayload(3)
	copy(p.Payload, []byte{1, 2, 3})
	p.FixChecksum()
	q := p.Clone()
	if &q.Payload[0] != &p.Payload[0] {
		t.Fatal("clone copied the payload instead of sharing it")
	}
	if n := PayloadHolders(p.Payload); n != 2 {
		t.Fatalf("holders after Clone = %d, want 2", n)
	}
	q.DstIP, q.Seq = 7, 200
	q.FixChecksum()
	if p.DstIP != 2 || p.Seq != 100 || !p.ChecksumOK() || !q.ChecksumOK() {
		t.Fatal("rewriting the clone's header disturbed the original")
	}
	// DstEntry values are immutable once published: filters replace the
	// pointer, never the fields, so the clone shares the entry.
	q.Dst = &DstEntry{NextHop: 1}
	if p.Dst.NextHop != 9 {
		t.Fatal("replacing the clone's Dst pointer must not touch the original")
	}
	body := q.Payload
	p.Release() // the original goes first; the clone keeps the bytes alive
	if n := PayloadHolders(body); n != 1 {
		t.Fatalf("holders after first Release = %d, want 1", n)
	}
	if body[0] != 1 || body[2] != 3 || !q.ChecksumOK() {
		t.Fatal("payload changed while a clone still held it")
	}
	q.Release()
	if n := PayloadHolders(body); n != 0 {
		t.Fatalf("holders after last Release = %d, want 0", n)
	}

	// Only GetPayload mints pooled buffers. A foreign one is shared
	// uncounted and left to the garbage collector whatever its capacity —
	// including the size-class capacity append gives a full-MSS copy, and
	// an oversized GetPayload of exactly the pooled array's length.
	for i, b := range [][]byte{
		{1, 2, 3},
		make([]byte, 3, payloadBufCap),
		append([]byte(nil), make([]byte, 1460)...),
		GetPayload(payloadArrayLen),
	} {
		f := &Packet{Payload: b}
		g := f.Clone()
		if PayloadHolders(b) != 0 || &g.Payload[0] != &b[0] {
			t.Fatalf("foreign buffer %d (cap %d) entered the holder scheme", i, cap(b))
		}
		g.Release()
		f.Release()
	}
}

// TestChecksumMatchesReference pins the field-direct, unrolled
// ComputeChecksum to the marshal-based oracle over every payload length
// 0–1536 (so every tail of the 32/8/4/2/1-byte ladder, odd lengths
// included) with random headers and random, all-zero and all-0xFF
// payloads — 20k packets in all — and on the all-zero packet, the one
// input whose sum folds to 0.
func TestChecksumMatchesReference(t *testing.T) {
	if got, want := (&Packet{}).ComputeChecksum(), ReferenceChecksum(&Packet{}); got != want {
		t.Fatalf("all-zero packet: ComputeChecksum=%#x, reference=%#x", got, want)
	}
	rng := simtime.NewRand(12)
	u32 := func() uint32 { return uint32(rng.Uint64()) }
	checked := 0
	for round := 0; checked < 20_000; round++ {
		for n := 0; n <= payloadBufCap; n++ {
			payload := make([]byte, n)
			switch round % 14 {
			case 12: // all zero
			case 13:
				for i := range payload {
					payload[i] = 0xFF
				}
			default:
				for i := range payload {
					payload[i] = byte(rng.Uint64())
				}
			}
			p := &Packet{
				SrcIP: Addr(u32()), DstIP: Addr(u32()),
				Proto: byte(u32()), TTL: byte(u32()), SrcPort: uint16(u32()), DstPort: uint16(u32()),
				Seq: u32(), Ack: u32(), Flags: byte(u32()),
				Window: uint16(u32()), TSVal: u32(), TSEcr: u32(),
				Checksum: uint16(u32()), // ignored: computed as if zero
				Payload:  payload,
			}
			if round%14 == 13 { // saturate the header too
				p.SrcIP, p.DstIP, p.Seq, p.Ack, p.TSVal, p.TSEcr = ^Addr(0), ^Addr(0), ^uint32(0), ^uint32(0), ^uint32(0), ^uint32(0)
				p.Proto, p.TTL, p.Flags, p.SrcPort, p.DstPort, p.Window = 0xFF, 0xFF, 0xFF, 0xFFFF, 0xFFFF, 0xFFFF
			}
			if got, want := p.ComputeChecksum(), ReferenceChecksum(p); got != want {
				t.Fatalf("round %d len=%d: ComputeChecksum=%#x, reference=%#x", round, n, got, want)
			}
			checked++
		}
	}
}

func TestFlowKeyMatch(t *testing.T) {
	k := FlowKey{RemoteIP: MakeAddr(10, 0, 0, 2), RemotePort: 5000, LocalPort: 80, Proto: ProtoTCP}
	in := &Packet{Proto: ProtoTCP, SrcIP: MakeAddr(10, 0, 0, 2), SrcPort: 5000, DstIP: MakeAddr(10, 0, 0, 1), DstPort: 80}
	if !k.MatchesIncoming(in) {
		t.Fatal("flow key should match")
	}
	other := *in
	other.SrcPort = 5001
	if k.MatchesIncoming(&other) {
		t.Fatal("flow key matched wrong port")
	}
	udp := *in
	udp.Proto = ProtoUDP
	if k.MatchesIncoming(&udp) {
		t.Fatal("flow key matched wrong proto")
	}
}

func TestTransferTime(t *testing.T) {
	lp := LinkParams{Bandwidth: 1e9}
	// 125 bytes = 1000 bits = 1µs at 1 Gb/s.
	if got := lp.TransferTime(125); got != time.Microsecond {
		t.Fatalf("TransferTime = %v, want 1µs", got)
	}
	if (LinkParams{}).TransferTime(1000) != 0 {
		t.Fatal("zero-bandwidth link should have zero transfer time")
	}
}

func TestSwitchDelivery(t *testing.T) {
	s := simtime.NewScheduler()
	sw := NewSwitch(s)
	a := sw.Attach("a", MakeAddr(192, 168, 0, 1), GigabitEthernet)
	b := sw.Attach("b", MakeAddr(192, 168, 0, 2), GigabitEthernet)
	var got *Packet
	b.SetHandler(HandlerFunc(func(p *Packet) { got = p }))
	a.Send(&Packet{SrcIP: a.Addr, DstIP: b.Addr, Proto: ProtoUDP, Payload: []byte("x")})
	s.Run()
	if got == nil || string(got.Payload) != "x" {
		t.Fatal("switch did not deliver")
	}
	if a.TxPackets != 1 || b.RxPackets != 1 {
		t.Fatal("counters wrong")
	}
}

func TestSwitchDropsUnknownDestination(t *testing.T) {
	s := simtime.NewScheduler()
	sw := NewSwitch(s)
	a := sw.Attach("a", MakeAddr(192, 168, 0, 1), GigabitEthernet)
	a.Send(&Packet{SrcIP: a.Addr, DstIP: MakeAddr(192, 168, 0, 99)})
	s.Run()
	if sw.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", sw.Dropped)
	}
}

func TestSwitchDetach(t *testing.T) {
	s := simtime.NewScheduler()
	sw := NewSwitch(s)
	a := sw.Attach("a", MakeAddr(192, 168, 0, 1), GigabitEthernet)
	b := sw.Attach("b", MakeAddr(192, 168, 0, 2), GigabitEthernet)
	sw.Detach(b)
	a.Send(&Packet{SrcIP: a.Addr, DstIP: b.Addr})
	s.Run()
	if sw.Dropped != 1 {
		t.Fatal("packet to detached node not dropped")
	}
}

func TestBroadcastRouterReplicatesToAllServers(t *testing.T) {
	s := simtime.NewScheduler()
	cluster := MakeAddr(203, 0, 113, 10)
	r := NewBroadcastRouter(s, cluster)
	var hits [3]int
	var nics [3]*NIC
	for i := range nics {
		i := i
		nics[i] = r.AttachServer("srv", GigabitEthernet)
		nics[i].SetHandler(HandlerFunc(func(p *Packet) { hits[i]++ }))
	}
	cli := r.AttachExternal("cli", MakeAddr(198, 51, 100, 1), GigabitEthernet)
	cli.Send(&Packet{SrcIP: cli.Addr, DstIP: cluster, Proto: ProtoUDP, DstPort: 27960})
	s.Run()
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("server %d received %d copies, want 1", i, h)
		}
	}
	if r.Broadcasts != 1 {
		t.Fatalf("Broadcasts = %d", r.Broadcasts)
	}
}

func TestBroadcastRouterClonesPerServer(t *testing.T) {
	s := simtime.NewScheduler()
	cluster := MakeAddr(203, 0, 113, 10)
	r := NewBroadcastRouter(s, cluster)
	var seen []*Packet
	for i := 0; i < 2; i++ {
		n := r.AttachServer("srv", GigabitEthernet)
		n.SetHandler(HandlerFunc(func(p *Packet) { seen = append(seen, p) }))
	}
	cli := r.AttachExternal("cli", MakeAddr(198, 51, 100, 1), GigabitEthernet)
	cli.Send(&Packet{SrcIP: cli.Addr, DstIP: cluster, Payload: []byte{7}})
	s.Run()
	if len(seen) != 2 {
		t.Fatalf("copies = %d", len(seen))
	}
	if seen[0] == seen[1] {
		t.Fatal("two servers were handed the same packet struct")
	}
	// Each node may mangle its packet's header (netfilter hooks do)...
	seen[0].DstIP, seen[0].DstPort = MakeAddr(10, 0, 0, 9), 99
	if seen[1].DstIP != cluster || seen[1].DstPort != 0 {
		t.Fatal("server packets alias the same header")
	}
	// ...while the immutable payload is one buffer, not one per node.
	if &seen[0].Payload[0] != &seen[1].Payload[0] || seen[1].Payload[0] != 7 {
		t.Fatal("fan-out copied the payload")
	}
}

func TestBroadcastRouterServerToClient(t *testing.T) {
	s := simtime.NewScheduler()
	cluster := MakeAddr(203, 0, 113, 10)
	r := NewBroadcastRouter(s, cluster)
	srv := r.AttachServer("srv", GigabitEthernet)
	got := 0
	cli := r.AttachExternal("cli", MakeAddr(198, 51, 100, 1), GigabitEthernet)
	cli.SetHandler(HandlerFunc(func(p *Packet) { got++ }))
	srv.Send(&Packet{SrcIP: cluster, DstIP: cli.Addr})
	s.Run()
	if got != 1 {
		t.Fatalf("client received %d packets", got)
	}
	if r.Broadcasts != 0 {
		t.Fatal("outbound packet was broadcast")
	}
}

func TestBroadcastRouterDetachServer(t *testing.T) {
	s := simtime.NewScheduler()
	r := NewBroadcastRouter(s, MakeAddr(203, 0, 113, 10))
	a := r.AttachServer("a", GigabitEthernet)
	r.AttachServer("b", GigabitEthernet)
	if r.ServerCount() != 2 {
		t.Fatal("server count")
	}
	r.DetachServer(a)
	if r.ServerCount() != 1 {
		t.Fatal("detach failed")
	}
}

func TestEgressSerialization(t *testing.T) {
	// Two back-to-back sends must queue: second arrival = 2*transfer + latency.
	s := simtime.NewScheduler()
	sw := NewSwitch(s)
	lp := LinkParams{Bandwidth: 1e9, Latency: 100 * time.Microsecond}
	a := sw.Attach("a", MakeAddr(10, 0, 0, 1), lp)
	b := sw.Attach("b", MakeAddr(10, 0, 0, 2), lp)
	var arrivals []simtime.Time
	b.SetHandler(HandlerFunc(func(p *Packet) { arrivals = append(arrivals, s.Now()) }))
	payload := make([]byte, 125000-headerBytes) // 1ms at 1Gb/s
	a.Send(&Packet{SrcIP: a.Addr, DstIP: b.Addr, Payload: payload})
	a.Send(&Packet{SrcIP: a.Addr, DstIP: b.Addr, Payload: payload})
	s.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	want1 := time.Millisecond + 100*time.Microsecond
	want2 := 2*time.Millisecond + 100*time.Microsecond
	if arrivals[0] != want1 || arrivals[1] != want2 {
		t.Fatalf("arrivals = %v, want [%v %v]", arrivals, want1, want2)
	}
}

// recTap records the events it is handed, in order.
type recTap struct{ evs []TapEvent }

func (r *recTap) PacketEvent(at simtime.Time, ev TapEvent, p *Packet) { r.evs = append(r.evs, ev) }

func TestSnifferSeesBothDirections(t *testing.T) {
	s := simtime.NewScheduler()
	sw := NewSwitch(s)
	a := sw.Attach("a", MakeAddr(10, 0, 0, 1), GigabitEthernet)
	b := sw.Attach("b", MakeAddr(10, 0, 0, 2), GigabitEthernet)
	b.SetHandler(HandlerFunc(func(p *Packet) {
		reply := &Packet{SrcIP: b.Addr, DstIP: a.Addr}
		b.Send(reply)
	}))
	tap := &recTap{}
	a.AttachTap(tap)
	a.Send(&Packet{SrcIP: a.Addr, DstIP: b.Addr})
	s.Run()
	if !reflect.DeepEqual(tap.evs, []TapEvent{TapTx, TapRx}) {
		t.Fatalf("tap saw %v, want one tx then one rx", tap.evs)
	}
}

func TestFlagString(t *testing.T) {
	if FlagString(FlagSYN|FlagACK) != "SYN|ACK" {
		t.Fatalf("got %q", FlagString(FlagSYN|FlagACK))
	}
	if FlagString(0) != "-" {
		t.Fatal("empty flags")
	}
}

func TestDuplicateAttachPanics(t *testing.T) {
	s := simtime.NewScheduler()
	sw := NewSwitch(s)
	sw.Attach("a", MakeAddr(10, 0, 0, 1), GigabitEthernet)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate address did not panic")
		}
	}()
	sw.Attach("a2", MakeAddr(10, 0, 0, 1), GigabitEthernet)
}
