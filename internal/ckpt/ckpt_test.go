package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"dvemig/internal/netstack"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
	"dvemig/internal/wire/wiretest"
)

func newTestCluster(n int) *proc.Cluster {
	return proc.NewCluster(simtime.NewScheduler(), n)
}

// buildProcess creates a process with memory content, several threads and
// regular files, returning it and its node.
func buildProcess(c *proc.Cluster) *proc.Process {
	n := c.Nodes[0]
	p := n.Spawn("zone_serv", 3)
	heap := p.AS.Mmap(64*proc.PageSize, "rw-")
	stack := p.AS.Mmap(16*proc.PageSize, "rw-")
	for i := uint64(0); i < 32; i++ {
		p.AS.Write(heap.Start+i*proc.PageSize, []byte{byte(i), byte(i * 3), 0xEE})
	}
	p.AS.Write(stack.Start, []byte("stack-bottom"))
	p.FDs.Install(&proc.RegularFile{Path: "/srv/world.db", Offset: 4096, Flags: 2})
	p.FDs.Install(&proc.RegularFile{Path: "/var/log/zone.log", Offset: 999, Flags: 1})
	p.CPUDemand = 0.35
	return p
}

func TestFullCheckpointRestoreMemoryIdentical(t *testing.T) {
	c := newTestCluster(2)
	p := buildProcess(c)
	img := Checkpoint(p)
	q, err := Restore(c.Nodes[1], img)
	if err != nil {
		t.Fatal(err)
	}
	if q.PID != p.PID || q.Name != p.Name {
		t.Fatal("identity not preserved")
	}
	if len(q.Threads) != len(p.Threads) {
		t.Fatal("thread count differs")
	}
	for i := range p.Threads {
		if !reflect.DeepEqual(p.Threads[i].Regs, q.Threads[i].Regs) {
			t.Fatal("registers corrupted")
		}
	}
	// Memory byte-for-byte over every mapped region.
	for i, v := range p.AS.VMAs() {
		qv := q.AS.VMAs()[i]
		if v.Start != qv.Start || v.End != qv.End {
			t.Fatal("vma geometry differs")
		}
		a, _ := p.AS.Read(v.Start, int(v.Len()))
		b, _ := q.AS.Read(v.Start, int(v.Len()))
		if !bytes.Equal(a, b) {
			t.Fatalf("memory differs in region %#x", v.Start)
		}
	}
	if q.CPUDemand != p.CPUDemand {
		t.Fatal("cpu accounting lost")
	}
	// Files re-opened with metadata.
	f, ok := q.FDs.Get(3).(*proc.RegularFile)
	if !ok || f.Path != "/srv/world.db" || f.Offset != 4096 {
		t.Fatal("file fd not restored")
	}
}

func TestImageEncodeDecodeRoundTrip(t *testing.T) {
	c := newTestCluster(1)
	p := buildProcess(c)
	img := Checkpoint(p)
	img.HandledSignals = []proc.Signal{proc.SIGCKPT}
	enc := img.Encode()
	dec, err := DecodeImage(enc)
	if err != nil {
		t.Fatal(err)
	}
	img.Behavior = nil // not serialized
	if !reflect.DeepEqual(img, dec) {
		t.Fatal("image roundtrip mismatch")
	}
}

func TestImageDecodeTruncated(t *testing.T) {
	c := newTestCluster(1)
	img := Checkpoint(buildProcess(c))
	enc := img.Encode()
	for _, cut := range []int{1, len(enc) / 2, len(enc) - 3} {
		if _, err := DecodeImage(enc[:cut]); err == nil {
			t.Fatalf("truncated image (%d bytes) accepted", cut)
		}
	}
}

func TestCheckpointWithSockets(t *testing.T) {
	c := newTestCluster(2)
	n1, n2 := c.Nodes[0], c.Nodes[1]
	p := n1.Spawn("srv", 1)
	lst := netstack.NewTCPSocket(n2.Stack)
	if err := lst.Listen(n2.LocalIP, 3306); err != nil {
		t.Fatal(err)
	}
	sk := netstack.NewTCPSocket(n1.Stack)
	if err := sk.Connect(n2.LocalIP, 3306); err != nil {
		t.Fatal(err)
	}
	us := netstack.NewUDPSocket(n1.Stack)
	if err := us.Bind(c.ClusterIP, 27960); err != nil {
		t.Fatal(err)
	}
	c.Sched.RunFor(time.Second)
	p.FDs.Install(&proc.TCPFile{Sock: sk})
	p.FDs.Install(&proc.UDPFile{Sock: us})
	p.FDs.Install(&proc.RegularFile{Path: "/x"})
	img := Checkpoint(p)
	kinds := map[string]int{}
	for _, f := range img.FDs {
		kinds[f.Kind]++
	}
	if kinds["tcp"] != 1 || kinds["udp"] != 1 || kinds["file"] != 1 {
		t.Fatalf("fd kinds = %v", kinds)
	}
	ex := CheckpointFDsExcludingSockets(p)
	if len(ex) != 1 || ex[0].Kind != "file" {
		t.Fatal("socket exclusion failed")
	}
	tcpFDs, udpFDs := SocketFDs(p)
	if len(tcpFDs) != 1 || len(udpFDs) != 1 {
		t.Fatal("SocketFDs wrong")
	}
}

func TestTrackerFirstRoundIsFull(t *testing.T) {
	c := newTestCluster(1)
	p := buildProcess(c)
	p.AS.ClearDirty()
	tr := NewTracker()
	d := tr.Delta(p.AS)
	if len(d.NewVMAs) != 2 {
		t.Fatalf("first round vmas = %d", len(d.NewVMAs))
	}
	if len(d.Pages) != 33 { // 32 heap pages + 1 stack page resident
		t.Fatalf("first round pages = %d, want 33", len(d.Pages))
	}
}

func TestTrackerDeltaOnlyDirty(t *testing.T) {
	c := newTestCluster(1)
	p := buildProcess(c)
	tr := NewTracker()
	tr.Delta(p.AS)
	heap := p.AS.VMAs()[0]
	p.AS.Touch(heap.Start + 5*proc.PageSize)
	p.AS.Touch(heap.Start + 9*proc.PageSize)
	d := tr.Delta(p.AS)
	if len(d.Pages) != 2 || len(d.NewVMAs) != 0 || len(d.Removed) != 0 {
		t.Fatalf("delta = %+v", d)
	}
	// Quiescent process: empty delta.
	d3 := tr.Delta(p.AS)
	if !d3.Empty() {
		t.Fatal("quiescent delta not empty")
	}
}

// TestMemTrackerLendsUntilNextCall: Delta lends the tracker's own delta,
// its lists reusing their arrays, until the tracker's next call. The
// package runs with the tripwire on (export_test.go), so a page list
// kept past the next Delta reads sentinel entries — index ^0, 0xDB
// content — while the live frames those entries pointed at stay as the
// process wrote them.
func TestMemTrackerLendsUntilNextCall(t *testing.T) {
	as := proc.NewAddressSpace()
	heap := as.Mmap(8*proc.PageSize, "rw-")
	for i := uint64(0); i < 8; i++ {
		if err := as.Write(heap.Start+i*proc.PageSize, []byte{byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	var tr Tracker
	d1 := tr.Delta(as)
	kept := d1.Pages
	if len(kept) != 8 {
		t.Fatalf("first round lent %d pages, want 8", len(kept))
	}
	as.Touch(heap.Start + 3*proc.PageSize)
	var live [8]byte
	for i := range live {
		b, _ := as.Read(heap.Start+uint64(i)*proc.PageSize, 1)
		live[i] = b[0]
	}
	d2 := tr.Delta(as)
	if d2 != d1 || d2.Round != 2 || len(d2.Pages) != 1 || d2.Pages[0].Index != 3 {
		t.Fatalf("second round: same delta %v, round %d, %d pages", d2 == d1, d2.Round, len(d2.Pages))
	}
	for i, pg := range kept {
		if pg.Index != ^uint64(0) || len(pg.Data) != proc.PageSize || pg.Data[0] != 0xDB || pg.Data[proc.PageSize-1] != 0xDB {
			t.Fatalf("entry %d kept past the next Delta is not poisoned: index %#x, data % x", i, pg.Index, pg.Data[:1])
		}
	}
	for i, want := range live {
		if b, _ := as.Read(heap.Start+uint64(i)*proc.PageSize, 1); b[0] != want {
			t.Fatalf("the tripwire wrote into live page %d: %#x, want %#x", i, b[0], want)
		}
	}

	// Without the tripwire the next round is built in the same arrays.
	poisonLent = false
	defer func() { poisonLent = true }()
	as.Touch(heap.Start + 5*proc.PageSize)
	before := &tr.Delta(as).Pages[0]
	as.Touch(heap.Start + 6*proc.PageSize)
	if d := tr.Delta(as); &d.Pages[0] != before || d.Pages[0].Index != 6 {
		t.Fatal("an unpoisoned round did not reuse the page list")
	}
}

func TestTrackerGeometryChanges(t *testing.T) {
	c := newTestCluster(1)
	p := buildProcess(c)
	tr := NewTracker()
	tr.Delta(p.AS)
	// Insert, resize, remove — the three kinds of change §V-A names.
	nv := p.AS.Mmap(4*proc.PageSize, "rw-")
	heap := p.AS.VMAs()[0]
	stack := p.AS.VMAs()[1]
	if err := p.AS.Munmap(stack.Start); err != nil {
		t.Fatal(err)
	}
	if err := p.AS.Resize(heap.Start, 80*proc.PageSize); err != nil {
		t.Fatal(err)
	}
	d := tr.Delta(p.AS)
	if len(d.NewVMAs) != 1 || d.NewVMAs[0].Start != nv.Start {
		t.Fatalf("insert not tracked: %+v", d.NewVMAs)
	}
	if len(d.Resized) != 1 || d.Resized[0].End-d.Resized[0].Start != 80*proc.PageSize {
		t.Fatalf("resize not tracked: %+v", d.Resized)
	}
	if len(d.Removed) != 1 || d.Removed[0] != stack.Start {
		t.Fatalf("removal not tracked: %+v", d.Removed)
	}
}

func TestPrecopyConvergesToIdenticalMemory(t *testing.T) {
	c := newTestCluster(2)
	p := buildProcess(c)
	tr := NewTracker()
	shadow := proc.NewAddressSpace()
	// Round 1: full. Rounds 2..4: app keeps writing between rounds.
	heap := p.AS.VMAs()[0]
	for round := 0; round < 4; round++ {
		d := tr.Delta(p.AS)
		enc := d.Encode()
		dec, err := DecodeMemDelta(enc)
		if err != nil {
			t.Fatal(err)
		}
		if err := ApplyDelta(shadow, dec); err != nil {
			t.Fatal(err)
		}
		// Mutate: dirty some pages, grow a mapping.
		p.AS.Write(heap.Start+uint64(round)*proc.PageSize, []byte{byte(round + 100)})
		if round == 1 {
			p.AS.Mmap(2*proc.PageSize, "rw-")
		}
	}
	// Final freeze round.
	if err := ApplyDelta(shadow, tr.Delta(p.AS)); err != nil {
		t.Fatal(err)
	}
	// Shadow must equal source byte for byte.
	if len(shadow.VMAs()) != len(p.AS.VMAs()) {
		t.Fatalf("vma count: shadow %d, src %d", len(shadow.VMAs()), len(p.AS.VMAs()))
	}
	for i, v := range p.AS.VMAs() {
		sv := shadow.VMAs()[i]
		if v.Start != sv.Start || v.End != sv.End {
			t.Fatal("geometry mismatch")
		}
		a, _ := p.AS.Read(v.Start, int(v.Len()))
		b, _ := shadow.Read(v.Start, int(v.Len()))
		if !bytes.Equal(a, b) {
			t.Fatalf("content mismatch in region %#x", v.Start)
		}
	}
}

func TestDeltaShrinksWithQuiescence(t *testing.T) {
	// The core precopy premise: as the app's write rate is fixed and the
	// rounds shrink, dirty sets shrink too. Simulate by writing fewer
	// pages each round and verifying encoded sizes decrease.
	c := newTestCluster(1)
	p := buildProcess(c)
	tr := NewTracker()
	tr.Delta(p.AS)
	heap := p.AS.VMAs()[0]
	sizes := []int{}
	for _, writes := range []int{16, 8, 4, 1} {
		for i := 0; i < writes; i++ {
			p.AS.Touch(heap.Start + uint64(i)*proc.PageSize)
		}
		sizes = append(sizes, len(tr.Delta(p.AS).Encode()))
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] >= sizes[i-1] {
			t.Fatalf("delta sizes not shrinking: %v", sizes)
		}
	}
}

func TestRestoreWithSocketsEndToEnd(t *testing.T) {
	// Full checkpoint of a process holding a live TCP connection, restore
	// on another node, verify the connection continues (in-cluster peer
	// reachable via the same path — no address translation needed here
	// because we restore on the same node in this unit test).
	c := newTestCluster(2)
	n1, n2 := c.Nodes[0], c.Nodes[1]
	p := n1.Spawn("db-client", 1)
	lst := netstack.NewTCPSocket(n2.Stack)
	if err := lst.Listen(n2.LocalIP, 3306); err != nil {
		t.Fatal(err)
	}
	var srv *netstack.TCPSocket
	lst.OnAccept = func(ch *netstack.TCPSocket) { srv = ch }
	sk := netstack.NewTCPSocket(n1.Stack)
	if err := sk.Connect(n2.LocalIP, 3306); err != nil {
		t.Fatal(err)
	}
	c.Sched.RunFor(time.Second)
	p.FDs.Install(&proc.TCPFile{Sock: sk})
	sk.Send([]byte("before-ckpt"))
	c.Sched.RunFor(100 * time.Millisecond)
	var got []byte
	srv.OnReadable = func() { got = append(got, srv.Recv()...) }
	got = append(got, srv.Recv()...)

	// Quiesce and checkpoint (stop-and-copy style restart on same node).
	sk.Unhash()
	img := Checkpoint(p)
	p.Exit()
	q, err := Restore(n1, img)
	if err != nil {
		t.Fatal(err)
	}
	qsk := q.FDs.Get(3).(*proc.TCPFile).Sock
	if qsk.State != netstack.TCPEstablished {
		t.Fatal("restored socket not established")
	}
	qsk.Send([]byte("+after"))
	c.Sched.RunFor(time.Second)
	if string(got) != "before-ckpt+after" {
		t.Fatalf("stream broken across restart: %q", got)
	}
}

func TestRestoreRejectsCorruptGeometry(t *testing.T) {
	c := newTestCluster(1)
	img := Checkpoint(buildProcess(c))
	img.VMAs = append(img.VMAs, img.VMAs[0]) // duplicate mapping
	if _, err := Restore(c.Nodes[0], img); err == nil {
		t.Fatal("overlapping restore accepted")
	}
}

func TestDecodeMemDeltaCorrupt(t *testing.T) {
	if _, err := DecodeMemDelta([]byte{0, 1}); err == nil {
		t.Fatal("corrupt delta accepted")
	}
	// 440 bytes: an empty geometry header, then 20 zero-page records that
	// each claim 1 MiB. Were the claims believed, decoding would allocate
	// 20 MiB on their say-so.
	be := binary.BigEndian
	hostile := be.AppendUint32(make([]byte, 16), 20)
	for i := range 20 {
		hostile = be.AppendUint64(hostile, 0x10000)
		hostile = be.AppendUint64(hostile, uint64(i))
		hostile = be.AppendUint32(append(hostile, pageEncZero), 1<<20)
	}
	if _, err := DecodeMemDelta(hostile); len(hostile) != 440 || !errors.Is(err, errCorruptPage) {
		t.Errorf("%d-byte delta of 1 MiB zero pages: error %v, want %v", len(hostile), err, errCorruptPage)
	}
	wiretest.CheckAllocBound(t, "the 440-byte delta", len(hostile), memDeltaAllocK, memDeltaAllocSlack, func() { _, _ = DecodeMemDelta(hostile) })
	for i, args := range wiretest.Corpus(t, "FuzzApplyEncodedDelta") {
		b := args[0].([]byte)
		wiretest.CheckAllocBound(t, fmt.Sprintf("FuzzApplyEncodedDelta entry %d", i), len(b), memDeltaAllocK, memDeltaAllocSlack, func() { _, _ = DecodeMemDelta(b) })
	}
}

// memDeltaAllocK bounds what decoding a memory delta allocates per input
// byte: the densest expansion is a zero or sparse page record, 21 bytes
// of coordinates, tag and length that decode into one 4 KiB page (195 B
// per byte), and the record slice around it. memDeltaAllocSlack covers
// the header's slices, and an error's text — which costs fmt a fresh
// printer when a collection has just emptied its pool.
const (
	memDeltaAllocK     = 256
	memDeltaAllocSlack = 64 << 10
)
