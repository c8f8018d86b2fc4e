package netstack

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"dvemig/internal/netsim"
	"dvemig/internal/simtime"
)

func TestTCPSnapshotEncodeDecodeRoundTrip(t *testing.T) {
	f := func(iss, una, nxt, irs, rcv, tsr, ltj, srcj uint32, cwnd, ssth uint32, payload []byte) bool {
		snap := &TCPSnapshot{
			LocalIP: addrB, RemoteIP: addrA, LocalPort: 80, RemotePort: 40000,
			State: TCPEstablished,
			ISS:   iss, SndUna: una, SndNxt: nxt, IRS: irs, RcvNxt: rcv,
			Cwnd: cwnd%1000 + 1, Ssthresh: ssth%1000 + 1,
			SRTTms: 12, RTTVarms: 3, RTOms: 240,
			TSRecent: tsr, LastTxJiffies: ltj, SrcJiffies: srcj,
			MSS: DefaultMSS, SndBuf: payload,
			BytesIn: 11, BytesOut: 22,
		}
		pkt := &netsim.Packet{SrcIP: addrB, DstIP: addrA, Proto: netsim.ProtoTCP,
			SrcPort: 80, DstPort: 40000, Seq: nxt, Payload: payload}
		pkt.FixChecksum()
		snap.WriteQueue = appendQueue(nil, []*netsim.Packet{pkt})
		got, err := DecodeTCPSnapshot(snap.Encode())
		if err != nil {
			return false
		}
		if len(payload) == 0 {
			snap.SndBuf = nil
			got.SndBuf = nil
		}
		return reflect.DeepEqual(snap, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestIdentitySectionHasKernelImageSize(t *testing.T) {
	snap := &TCPSnapshot{MSS: DefaultMSS}
	if len(snap.EncodeSection(SecIdentity)) != KernelSockImageBytes {
		t.Fatalf("identity section = %d bytes, want %d", len(snap.EncodeSection(SecIdentity)), KernelSockImageBytes)
	}
	// The hot core section stays small so traffic-induced deltas are
	// cheap; it grows with the unsegmented send buffer.
	if n := len(snap.EncodeSection(SecCore)); n > 256 {
		t.Fatalf("core section = %d bytes, should be small", n)
	}
	snap.SndBuf = make([]byte, 1024)
	if len(snap.EncodeSection(SecCore)) < 1024 {
		t.Fatal("core section did not grow with send buffer")
	}
}

// TestAppendFormsStartWhereTheBufferEnds: every append form writes the
// same bytes behind a non-empty prefix as into an empty buffer and leaves
// the prefix alone — padding in particular is counted from the section's
// start, not the buffer's — and the hash forms differ from the shipped
// ones in the capture clock and the identity padding only.
func TestAppendFormsStartWhereTheBufferEnds(t *testing.T) {
	pkt := &netsim.Packet{SrcIP: addrB, DstIP: addrA, Proto: netsim.ProtoTCP, Seq: 7, Payload: []byte("queued")}
	snap := &TCPSnapshot{
		LocalIP: addrB, RemoteIP: addrA, LocalPort: 80, RemotePort: 40000, State: TCPEstablished,
		ISS: 1, SndUna: 2, SndNxt: 3, IRS: 4, RcvNxt: 5, SrcJiffies: 0xA1B2C3D4, MSS: DefaultMSS,
		SndBuf:       []byte("unsent bytes"),
		WriteQueue:   appendQueue(nil, []*netsim.Packet{pkt, pkt}),
		ReceiveQueue: appendQueue(nil, []*netsim.Packet{pkt}),
	}
	prefix := []byte("what the buffer already holds")
	behindPrefix := func(name string, appendTo func(dst []byte) []byte) []byte {
		t.Helper()
		want := appendTo(nil)
		got := appendTo(append([]byte(nil), prefix...))
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("%s: %d bytes behind a %d-byte prefix, %d into an empty buffer, or the prefix changed",
				name, len(got)-len(prefix), len(prefix), len(want))
		}
		return want
	}
	clockOnly := func(name string, shipped, hashed []byte, clockOff int) {
		t.Helper()
		masked := append([]byte(nil), shipped...)
		copy(masked[clockOff:], []byte{0, 0, 0, 0})
		if bytes.Equal(shipped, hashed) || !bytes.Equal(masked, hashed) {
			t.Fatalf("%s: the hash form is not the shipped form with the clock at %d zeroed", name, clockOff)
		}
	}
	for id := SectionID(0); id < numSections; id++ {
		shipped := behindPrefix(id.String(), func(dst []byte) []byte { return snap.AppendSection(dst, id) })
		hashed := behindPrefix(id.String()+" hash form", func(dst []byte) []byte { return snap.AppendSectionHashBytes(dst, id) })
		if !bytes.Equal(shipped, snap.EncodeSection(id)) {
			t.Fatalf("%s: EncodeSection differs from AppendSection(nil)", id)
		}
		switch {
		case id == SecCore:
			clockOnly("core", shipped, hashed, 14*4)
		case id == SecIdentity:
			if len(hashed) != identityFieldBytes || !bytes.Equal(shipped[:len(hashed)], hashed) ||
				!bytes.Equal(shipped[len(hashed):], zeros[:KernelSockImageBytes-len(hashed)]) {
				t.Fatal("identity: the hash form is not the shipped form less its zero padding")
			}
		case !bytes.Equal(shipped, hashed):
			t.Fatalf("%s: hash form differs from the shipped form", id)
		}
	}
	if len(snap.EncodeSection(SecIdentity)) != KernelSockImageBytes {
		t.Fatal("identity section lost its size")
	}
	if snap.SrcJiffies != 0xA1B2C3D4 {
		t.Fatal("a hash form left the capture clock masked")
	}

	udp := &UDPSnapshot{LocalIP: addrB, LocalPort: 27960, SrcJiffies: 0xA1B2C3D4, PacketsIn: 2,
		Queue: []Datagram{{SrcIP: addrA, SrcPort: 9, Payload: []byte("dgram")}}}
	shipped := behindPrefix("udp", udp.AppendEncode)
	hashed := behindPrefix("udp hash form", udp.AppendHashBytes)
	clockOnly("udp", shipped, hashed, 6)
	if !bytes.Equal(shipped, udp.Encode()) || udp.SrcJiffies != 0xA1B2C3D4 {
		t.Fatal("udp: Encode differs from AppendEncode(nil), or the clock stayed masked")
	}
}

func TestQueueSectionSizeCountsSkbOverhead(t *testing.T) {
	snap := &TCPSnapshot{}
	empty := snap.EncodeSection(SecWriteQueue)
	pkt := &netsim.Packet{Payload: make([]byte, 100)}
	snap.WriteQueue = appendQueue(nil, []*netsim.Packet{pkt})
	one := snap.EncodeSection(SecWriteQueue)
	perBuf := len(one) - len(empty)
	if perBuf < SkbOverheadBytes+100 {
		t.Fatalf("per-buffer cost = %d, want at least %d", perBuf, SkbOverheadBytes+100)
	}
}

// TestApplySectionZeroesShells: a queue section whose sk_buff shells a
// sender filled with something other than zeros is held, and shipped on,
// as the writer would have made it — the segments kept, the shells zero,
// the bytes after the last segment dropped.
func TestApplySectionZeroesShells(t *testing.T) {
	pkts := []*netsim.Packet{{Seq: 1, Payload: []byte("one")}, {Seq: 2, Payload: []byte("two")}}
	want := appendQueue(nil, pkts)
	sec := append(bytes.Repeat([]byte{0x6f}, len(want)), 9, 9)
	copy(sec, want)
	for off, i := 4, 0; i < len(pkts); i++ {
		off += 4 + pkts[i].Len()
		for j := off; j < off+SkbOverheadBytes; j++ {
			sec[j] = 0x6f
		}
		off += SkbOverheadBytes
	}
	snap := &TCPSnapshot{}
	if err := snap.ApplySection(SecReceiveQueue, sec); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap.ReceiveQueue, want) || !bytes.Equal(snap.EncodeSection(SecReceiveQueue), want) {
		t.Fatal("the held queue kept the sender's shell bytes")
	}
}

func TestApplySectionUnknownID(t *testing.T) {
	snap := &TCPSnapshot{}
	if err := snap.ApplySection(SectionID(99), nil); err == nil {
		t.Fatal("unknown section accepted")
	}
}

func TestDecodeTruncatedSnapshot(t *testing.T) {
	snap := &TCPSnapshot{State: TCPEstablished}
	enc := snap.Encode()
	if _, err := DecodeTCPSnapshot(enc[:len(enc)-10]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

func TestRestoreTCPAdjustsJiffies(t *testing.T) {
	p := newPair(t)
	cli, srv := p.connect(t, 4100)
	// Put a segment in flight so the write queue is non-empty at snapshot
	// time: lock the client so the ACK cannot be processed.
	srv.OnReadable = func() { srv.Recv() }
	cli.Lock()
	cli.Send([]byte("unacked"))
	p.sched.RunFor(50 * time.Millisecond)
	if len(cli.WriteQueue()) == 0 {
		t.Fatal("write queue empty; test setup broken")
	}
	origTS := cli.WriteQueue()[0].TSVal
	cli.Unhash()
	snap := SnapshotTCP(cli)
	srcJ := p.a.Jiffies()
	if snap.SrcJiffies != srcJ {
		t.Fatalf("SrcJiffies = %d, want %d", snap.SrcJiffies, srcJ)
	}
	// Restore on stack b, whose jiffies differ by 49000. Timestamp
	// continuity is per-socket: instead of rewriting the buffered TSVals
	// to b's clock, the restore installs a TSOffset so the socket keeps
	// ticking on the clock the peer already knows.
	restored, err := RestoreTCP(p.b, snap)
	if err != nil {
		t.Fatal(err)
	}
	if restored.WriteQueue()[0].TSVal != origTS {
		t.Fatalf("buffer timestamp must be preserved verbatim: got %d, want %d",
			restored.WriteQueue()[0].TSVal, origTS)
	}
	if restored.LastTxJiffies != snap.LastTxJiffies {
		t.Fatal("LastTxJiffies must be preserved verbatim")
	}
	// The socket clock must resume from the checkpoint value: no virtual
	// time passed between snapshot and restore, so tsNow() == srcJ.
	if restored.tsNow() != srcJ {
		t.Fatalf("socket clock did not resume from source clock: tsNow=%d srcJ=%d", restored.tsNow(), srcJ)
	}
	if restored.TSOffset != srcJ-p.b.Jiffies() {
		t.Fatalf("TSOffset = %d, want %d", restored.TSOffset, srcJ-p.b.Jiffies())
	}
	if restored.TSRecent != snap.TSRecent {
		t.Fatal("TSRecent (peer clock) must not be adjusted")
	}
	if p.b.LookupEstablished(restored.Tuple()) != restored {
		t.Fatal("restored socket not rehashed")
	}
	if !restored.WriteQueue()[0].ChecksumOK() {
		t.Fatal("restored buffer checksum not intact")
	}
}

func TestRestoreTCPRestartsRetransTimer(t *testing.T) {
	p := newPair(t)
	cli, srv := p.connect(t, 4101)
	var got []byte
	srv.OnReadable = func() { got = append(got, srv.Recv()...) }
	// Lose the data packet on its way into b; the socket will have to
	// retransmit from its new home.
	p.nb.SetFault(rxLoss(func(_ simtime.Time, pk *netsim.Packet) bool { return len(pk.Payload) > 0 }))
	cli.Send([]byte("must-arrive"))
	p.sched.RunFor(20 * time.Millisecond)
	cli.Unhash()
	snap := SnapshotTCP(cli)
	p.nb.SetFault(nil)

	// Restore the client socket onto a third stack c on the same LAN.
	addrC := netsim.MakeAddr(192, 168, 0, 3)
	nc := p.sw.Attach("c.eth0", addrC, netsim.GigabitEthernet)
	c := NewStack(p.sched, "c", 999999)
	c.AttachNIC(nc, addrC)
	c.AddRoute(lan, 24, nc, addrC)
	// The connection's local address is addrA; c must own it for demux.
	// (In the real system this is the single cluster IP shared by all
	// nodes; emulate by moving the address from a to c.)
	p.sw.Detach(p.a.nicByName("a.eth0")) // a leaves; c takes over addrA
	cNic2 := p.sw.Attach("c.eth0:0", addrA, netsim.GigabitEthernet)
	c.AttachNIC(cNic2, addrA)
	c.AddRoute(lan, 24, cNic2, addrA)

	restored, err := RestoreTCP(c, snap)
	if err != nil {
		t.Fatal(err)
	}
	p.sched.RunFor(10 * time.Second)
	if string(got) != "must-arrive" {
		t.Fatalf("retransmission from restored socket failed: %q", got)
	}
	if restored.Retransmits == 0 {
		t.Fatal("restored socket never retransmitted")
	}
	if restored.SndUna != restored.SndNxt {
		t.Fatal("retransmitted data not acknowledged")
	}
}

func TestRestoreListenerAcceptsOnNewNode(t *testing.T) {
	p := newPair(t)
	lst := NewTCPSocket(p.a)
	if err := lst.Listen(addrA, 8080); err != nil {
		t.Fatal(err)
	}
	lst.Unhash()
	snap := SnapshotTCP(lst)
	if !snap.Listening || snap.State != TCPListen {
		t.Fatal("listen snapshot wrong")
	}
	enc := snap.Encode()
	dec, err := DecodeTCPSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	// Restore on b under b's address (port ownership moves with it; on
	// the real cluster the IP is shared).
	dec.LocalIP = addrB
	restored, err := RestoreTCP(p.b, dec)
	if err != nil {
		t.Fatal(err)
	}
	var accepted *TCPSocket
	restored.OnAccept = func(ch *TCPSocket) { accepted = ch }
	cli := NewTCPSocket(p.a)
	if err := cli.Connect(addrB, 8080); err != nil {
		t.Fatal(err)
	}
	p.sched.RunFor(time.Second)
	if accepted == nil || accepted.State != TCPEstablished {
		t.Fatal("migrated listener did not accept")
	}
}

func TestRehashConflictDetected(t *testing.T) {
	p := newPair(t)
	cli, _ := p.connect(t, 4102)
	cli.Unhash()
	snap := SnapshotTCP(cli)
	r1, err := RestoreTCP(p.a, snap)
	if err != nil {
		t.Fatal(err)
	}
	_ = r1
	if _, err := RestoreTCP(p.a, snap); err == nil {
		t.Fatal("double restore of the same tuple accepted")
	}
}

func TestUDPSnapshotRoundTrip(t *testing.T) {
	p := newPair(t)
	srv := NewUDPSocket(p.b)
	if err := srv.Bind(addrB, 27960); err != nil {
		t.Fatal(err)
	}
	cli := NewUDPSocket(p.a)
	cli.BindEphemeral(addrA)
	cli.SendTo(addrB, 27960, []byte("q1"))
	cli.SendTo(addrB, 27960, []byte("q2"))
	p.sched.Run()
	if srv.QueueLen() != 2 {
		t.Fatalf("queue = %d", srv.QueueLen())
	}
	srv.Unhash()
	snap := SnapshotUDP(srv)
	dec, err := DecodeUDPSnapshot(snap.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Queue) != 2 || string(dec.Queue[0].Payload) != "q1" || string(dec.Queue[1].Payload) != "q2" {
		t.Fatalf("queue lost in roundtrip: %+v", dec.Queue)
	}
	if dec.LocalPort != 27960 {
		t.Fatal("identity lost")
	}
	restored, err := RestoreUDP(p.b, dec)
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := restored.Recv(); !ok || string(d.Payload) != "q1" {
		t.Fatal("restored queue order wrong")
	}
	// And it receives fresh traffic.
	cli.SendTo(addrB, 27960, []byte("fresh"))
	p.sched.Run()
	restored.Recv()
	if d, ok := restored.Recv(); !ok || string(d.Payload) != "fresh" {
		t.Fatal("restored socket not hashed")
	}
}

func TestUDPSnapshotEncodedSizeRealistic(t *testing.T) {
	p := newPair(t)
	srv := NewUDPSocket(p.b)
	if err := srv.Bind(addrB, 27962); err != nil {
		t.Fatal(err)
	}
	snap := SnapshotUDP(srv)
	if n := len(snap.Encode()); n < UDPSockImageBytes {
		t.Fatalf("udp image = %d bytes, want ≥ %d", n, UDPSockImageBytes)
	}
}

func TestDecodeUDPSnapshotCorrupt(t *testing.T) {
	if _, err := DecodeUDPSnapshot([]byte{1, 2, 3}); err == nil {
		t.Fatal("corrupt UDP snapshot accepted")
	}
}

func TestSnapshotDataIntegrityAcrossMigration(t *testing.T) {
	// End-to-end: stream data, snapshot mid-stream with bytes in the
	// receive queue, restore elsewhere, verify the application sees the
	// exact stream.
	p := newPair(t)
	cli, srv := p.connect(t, 4103)
	msg := bytes.Repeat([]byte("0123456789"), 2000)
	cli.Send(msg)
	p.sched.RunFor(5 * time.Millisecond) // partial delivery, queues hot
	srv.Unhash()
	snap := SnapshotTCP(srv)
	restored, err := RestoreTCP(p.b, snap) // same node B: rebind
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	restored.OnReadable = func() { got = append(got, restored.Recv()...) }
	got = append(got, restored.Recv()...)
	p.sched.RunFor(10 * time.Second)
	if !bytes.Equal(got, msg) {
		t.Fatalf("stream corrupted across snapshot/restore: got %d bytes want %d", len(got), len(msg))
	}
}

func TestSectionString(t *testing.T) {
	names := map[SectionID]string{SecIdentity: "identity", SecCore: "core",
		SecWriteQueue: "write-queue", SecReceiveQueue: "receive-queue", SecOOOQueue: "ooo-queue"}
	for id, want := range names {
		if id.String() != want {
			t.Fatalf("section %d = %q", id, id.String())
		}
	}
	if SectionID(200).String() != "unknown" {
		t.Fatal("unknown section name")
	}
}

func TestTCPStateString(t *testing.T) {
	if TCPEstablished.String() != "ESTABLISHED" || TCPListen.String() != "LISTEN" {
		t.Fatal("state names wrong")
	}
	if TCPState(99).String() != "UNKNOWN" {
		t.Fatal("unknown state name")
	}
}

var _ = simtime.JiffyPeriod // keep import when tests shrink

// TestSnapshotLenMatchesEncoding: TCPSnapshotLen and UDPSnapshotLen, which
// size a tracker's arena before anything is encoded, are the lengths
// the encodings come out at — with a write queue in flight, a send
// backlog, unread and out-of-order segments, and queued datagrams.
func TestSnapshotLenMatchesEncoding(t *testing.T) {
	p := newPair(t)
	cli, srv := p.connect(t, 4300)
	full := func(sk *TCPSocket) int {
		snap := SnapshotTCP(sk)
		n := 0
		for id := SectionID(0); id < numSections; id++ {
			n += len(snap.EncodeSection(id))
		}
		return n
	}
	check := func(when string) {
		t.Helper()
		for _, sk := range []*TCPSocket{cli, srv} {
			if got, want := TCPSnapshotLen(sk), full(sk); got != want {
				t.Fatalf("%s: TCPSnapshotLen = %d, sections encode to %d", when, got, want)
			}
		}
	}
	check("idle")
	var held *netsim.Packet
	p.b.SetCapturer(captureFunc(func(pk *netsim.Packet) bool {
		switch {
		case held == nil && len(pk.Payload) > 0:
			held = pk
			return true
		case held != nil && pk.Seq == held.Seq:
			pk.Release() // the retransmissions too: the hole stays open
			return true
		}
		return false
	}))
	cli.Send(bytes.Repeat([]byte("A"), 60*DefaultMSS)) // more than the window takes
	p.sched.RunFor(30 * time.Microsecond)
	if len(cli.WriteQueue()) == 0 || cli.SendBufLen() == 0 {
		t.Fatalf("nothing in flight (%d) or no backlog (%d)", len(cli.WriteQueue()), cli.SendBufLen())
	}
	check("in flight")
	p.sched.RunFor(50 * time.Millisecond)
	if len(srv.OOOQueue()) == 0 {
		t.Fatal("no out-of-order segment")
	}
	check("out of order")
	p.b.SetCapturer(nil)
	p.b.Reinject(held)
	p.sched.RunFor(time.Second)
	if len(srv.ReceiveQueue()) == 0 {
		t.Fatal("nothing unread")
	}
	check("unread")

	us := NewUDPSocket(p.b)
	if err := us.Bind(addrB, 7300); err != nil {
		t.Fatal(err)
	}
	ua := NewUDPSocket(p.a)
	ua.BindEphemeral(addrA)
	for i, msg := range []string{"", "x", "a longer datagram"} {
		if got, want := UDPSnapshotLen(us), len(SnapshotUDP(us).Encode()); got != want {
			t.Fatalf("%d datagrams: UDPSnapshotLen = %d, encoding is %d", i, got, want)
		}
		ua.SendTo(addrB, 7300, []byte(msg))
		p.sched.Run()
	}
}
