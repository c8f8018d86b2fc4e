package proc

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"dvemig/internal/netstack"
	"dvemig/internal/simtime"
)

func TestMmapAndWriteRead(t *testing.T) {
	as := NewAddressSpace()
	v := as.Mmap(3*PageSize, "rw-")
	data := bytes.Repeat([]byte{0xAB}, 2*PageSize+100)
	if err := as.Write(v.Start+50, data); err != nil {
		t.Fatal(err)
	}
	got, err := as.Read(v.Start+50, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read mismatch")
	}
	// The write spans three pages; all must be dirty.
	if len(as.DirtyPages()) != 3 {
		t.Fatalf("dirty pages = %d, want 3", len(as.DirtyPages()))
	}
}

func TestReadUnfaultedIsZero(t *testing.T) {
	as := NewAddressSpace()
	v := as.Mmap(PageSize, "rw-")
	got, err := as.Read(v.Start, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 64)) {
		t.Fatal("unfaulted page not zero")
	}
	if v.Resident() != 0 {
		t.Fatal("read must not fault pages in")
	}
}

func TestSegfaultOutsideMapping(t *testing.T) {
	as := NewAddressSpace()
	if err := as.Write(0x1000, []byte{1}); err == nil {
		t.Fatal("write outside mapping succeeded")
	}
	if _, err := as.Read(0x1000, 1); err == nil {
		t.Fatal("read outside mapping succeeded")
	}
	if err := as.Touch(0x1000); err == nil {
		t.Fatal("touch outside mapping succeeded")
	}
}

// Touch resolves its page with one lookup; both outcomes of that lookup
// keep their contract: a first touch materialises exactly the touched
// page, and a post-copy placeholder faults through OnMissing and stays a
// placeholder (no buffer, not dirty).
func TestTouchMaterialisesOneAndFaultsOnAbsent(t *testing.T) {
	as := NewAddressSpace()
	v := as.Mmap(8*PageSize, "rw-")
	if err := as.Touch(v.Start + 2*PageSize + 7); err != nil {
		t.Fatal(err)
	}
	// The fault cuts one line: the page up to the byte the store reached.
	if p, ok := v.Entry(2); v.Resident() != 1 || !ok || !p.Dirty || len(p.Frame) != LineSize || cap(p.Frame) != LineSize || p.Frame[7] != 1 {
		t.Fatalf("first touch left %d pages, page 2 = %+v", v.Resident(), p)
	}
	if p, _ := v.Entry(2); as.Touch(v.Start+2*PageSize+7) != nil || p.Frame[7] != 2 || v.Resident() != 1 {
		t.Fatalf("second touch: byte %d, %d pages", p.Frame[7], v.Resident())
	}
	// A store past the line regrows the frame to the full page, once,
	// carrying what it held; the page past the frame read zero before.
	if got, _ := as.Read(v.Start+2*PageSize+3000, 1); got[0] != 0 {
		t.Fatalf("byte 3000 of a one-line page reads %d", got[0])
	}
	if err := as.Touch(v.Start + 2*PageSize + 3000); err != nil {
		t.Fatal(err)
	}
	if p, _ := v.Entry(2); len(p.Frame) != PageSize || cap(p.Frame) != PageSize || p.Frame[7] != 2 || p.Frame[3000] != 1 || v.Resident() != 1 {
		t.Fatalf("store past the frame: frame of %d bytes, bytes 7 and 3000 = %d, %d", len(p.Frame), p.Frame[7], p.Frame[3000])
	}

	if err := as.MarkAbsent(v.Start, 5); err != nil {
		t.Fatal(err)
	}
	var faults [][2]uint64
	as.OnMissing = func(vmaStart, idx uint64) { faults = append(faults, [2]uint64{vmaStart, idx}) }
	if err := as.Touch(v.Start + 5*PageSize); !errors.Is(err, ErrPageAbsent) {
		t.Fatalf("touch of an absent page returned %v", err)
	}
	if len(faults) != 1 || faults[0] != [2]uint64{v.Start, 5} {
		t.Fatalf("OnMissing calls: %v", faults)
	}
	if p, ok := v.Entry(5); !ok || !p.Absent || p.Dirty || p.Frame != nil || v.Resident() != 2 {
		t.Fatalf("absent page was materialised: %+v (%d pages)", p, v.Resident())
	}
}

func TestDirtyTrackingClearAndRetouch(t *testing.T) {
	as := NewAddressSpace()
	v := as.Mmap(8*PageSize, "rw-")
	for i := uint64(0); i < 8; i++ {
		as.Touch(v.Start + i*PageSize)
	}
	if len(as.DirtyPages()) != 8 {
		t.Fatal("all touched pages should be dirty")
	}
	as.ClearDirty()
	if len(as.DirtyPages()) != 0 {
		t.Fatal("clear failed")
	}
	as.Touch(v.Start + 3*PageSize)
	d := as.DirtyPages()
	if len(d) != 1 || d[0].Addr() != v.Start+3*PageSize {
		t.Fatalf("retouch tracking wrong: %+v", d)
	}
}

func TestDirtyPagesDeterministicOrder(t *testing.T) {
	as := NewAddressSpace()
	v := as.Mmap(16*PageSize, "rw-")
	for _, i := range []uint64{9, 2, 14, 0, 7} {
		as.Touch(v.Start + i*PageSize)
	}
	d := as.DirtyPages()
	for i := 1; i < len(d); i++ {
		if d[i-1].Addr() >= d[i].Addr() {
			t.Fatal("dirty pages not in address order")
		}
	}
}

func TestMmapFixedOverlapRejected(t *testing.T) {
	as := NewAddressSpace()
	if _, err := as.MmapFixed(0x10000, 0x14000, "rw-"); err != nil {
		t.Fatal(err)
	}
	if _, err := as.MmapFixed(0x12000, 0x16000, "rw-"); err == nil {
		t.Fatal("overlap accepted")
	}
	if _, err := as.MmapFixed(0x14000, 0x14000, "rw-"); err == nil {
		t.Fatal("empty mapping accepted")
	}
	if _, err := as.MmapFixed(0x14001, 0x18000, "rw-"); err == nil {
		t.Fatal("unaligned mapping accepted")
	}
}

func TestMunmapAndResize(t *testing.T) {
	as := NewAddressSpace()
	v := as.Mmap(4*PageSize, "rw-")
	as.Touch(v.Start + 3*PageSize)
	if err := as.Resize(v.Start, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	if v.Len() != 2*PageSize {
		t.Fatal("shrink failed")
	}
	if len(as.DirtyPages()) != 0 {
		t.Fatal("pages beyond shrink not discarded")
	}
	if err := as.Resize(v.Start, 6*PageSize); err != nil {
		t.Fatal(err)
	}
	if err := as.Munmap(v.Start); err != nil {
		t.Fatal(err)
	}
	if err := as.Munmap(v.Start); err == nil {
		t.Fatal("double munmap succeeded")
	}
	if len(as.VMAs()) != 0 {
		t.Fatal("vma list not empty")
	}
}

func TestResizeCollision(t *testing.T) {
	as := NewAddressSpace()
	a := as.Mmap(PageSize, "rw-")
	as.Mmap(PageSize, "rw-")
	if err := as.Resize(a.Start, 64*PageSize); err == nil {
		t.Fatal("resize into next mapping accepted")
	}
}

// Resize takes its length from decoded deltas and directories
// (applyGeometry passes End-Start of a wire record), so a record whose
// end lies at or below its start must be refused like MmapFixed refuses
// it — not wrapped into an inverted or empty region.
func TestResizeRejectsEmptyAndInverted(t *testing.T) {
	as := NewAddressSpace()
	v, err := as.MmapFixed(0x10000, 0x20000, "rw-")
	if err != nil {
		t.Fatal(err)
	}
	if err := as.Touch(0x1f000); err != nil {
		t.Fatal(err)
	}
	start, below := v.Start, uint64(0x8000)
	for what, newLen := range map[string]uint64{
		"to 0 bytes":                     0,
		"to an end below the start":      below - start, // End - Start of the record, as applyGeometry computes it
		"to a length that rounds to 2⁶⁴": ^uint64(0) - 100,
		"to an end that wraps to 0":      0 - start,
	} {
		if err := as.Resize(v.Start, newLen); err == nil {
			t.Errorf("resize %s accepted: region is now [%#x,%#x)", what, v.Start, v.End)
		}
		if v.Start != 0x10000 || v.End != 0x20000 || v.Resident() != 1 {
			t.Fatalf("refused resize %s changed the region: [%#x,%#x), %d resident", what, v.Start, v.End, v.Resident())
		}
	}
}

// A grown region moves the anonymous-mapping cursor with it, or the next
// Mmap would be placed inside it.
func TestMmapAfterGrowDoesNotOverlap(t *testing.T) {
	as := NewAddressSpace()
	a := as.Mmap(PageSize, "rw-")
	if err := as.Resize(a.Start, 64*PageSize); err != nil {
		t.Fatal(err)
	}
	if b := as.Mmap(PageSize, "rw-"); b.Start < a.End {
		t.Fatalf("mapping [%#x,%#x) placed inside the grown [%#x,%#x)", b.Start, b.End, a.Start, a.End)
	}
}

// Page indices arrive on the wire too (ApplyPageDir passes a decoded
// PageCoord.Index, the puller a reply's): an index at or past the
// region's end names no page. A placeholder planted there could never be
// faulted in, and AbsentCount and the prefetch sweep would wait on it
// forever.
func TestPageIndexPastTheRegionIsRejected(t *testing.T) {
	as := NewAddressSpace()
	v := as.Mmap(16*PageSize, "rw-")
	for _, idx := range []uint64{16, 17, leafPages, 1 << 40, ^uint64(0)} {
		if err := as.MarkAbsent(v.Start, idx); err == nil {
			t.Errorf("MarkAbsent(%d) on a 16-page region accepted", idx)
		}
		if err := as.FillPage(v.Start, idx, make([]byte, PageSize)); err == nil {
			t.Errorf("FillPage(%d) on a 16-page region accepted", idx)
		}
		if _, ok := v.Entry(idx); ok {
			t.Errorf("Entry(%d) on a 16-page region exists", idx)
		}
	}
	if as.AbsentCount() != 0 || v.Resident() != 0 {
		t.Fatalf("rejected calls left %d placeholders, %d entries", as.AbsentCount(), v.Resident())
	}
	if err := as.MarkAbsent(v.Start, 15); err != nil {
		t.Fatal(err)
	}
	if err := as.FillPage(v.Start, 15, make([]byte, PageSize)); err != nil {
		t.Fatal(err)
	}
}

// A fill is one page, exactly: the content was decoded from a reply, and
// a page that is short or over-long is refused whole — not zero-padded,
// not truncated — and leaves the placeholder waiting.
func TestFillPageAcceptsExactlyOnePage(t *testing.T) {
	as := NewAddressSpace()
	v := as.Mmap(4*PageSize, "rw-")
	if err := as.MarkAbsent(v.Start, 1); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, PageSize - 1, PageSize + 1, 2 * PageSize} {
		if err := as.FillPage(v.Start, 1, make([]byte, n)); !errors.Is(err, ErrFillSize) {
			t.Errorf("a %d-byte fill returned %v, want ErrFillSize", n, err)
		}
	}
	if e, _ := v.Entry(1); !e.Absent || as.AbsentCount() != 1 {
		t.Fatalf("refused fills changed the placeholder: %+v", e)
	}
	page := bytes.Repeat([]byte{7}, PageSize)
	if err := as.FillPage(v.Start, 1, page); err != nil {
		t.Fatal(err)
	}
	if e, _ := v.Entry(1); e.Absent || e.Dirty || !bytes.Equal(e.Frame, page) {
		t.Fatalf("filled page: %+v", e)
	}
	if err := as.FillPage(v.Start, 1, page); err == nil || errors.Is(err, ErrFillSize) {
		t.Fatalf("duplicate fill returned %v", err)
	}
}

// TestFillPageReusesStaleFrame: a resident page turned placeholder
// (hybrid's first-round copy, dirtied on the source since) keeps its
// frame, hidden, and a fill whose content fits it writes the arriving
// page over it — the same one-line frame, no new one cut, nothing
// allocated. A fill whose content reaches past the stale frame regrows
// it to a full page, once. The package runs with stale frames poisoned
// (export_test.go): the fill must overwrite all of the frame it keeps.
func TestFillPageReusesStaleFrame(t *testing.T) {
	as := NewAddressSpace()
	v := as.Mmap(64*PageSize, "rw-")
	for i := uint64(0); len(as.chunk) == 0; i++ { // until faults cut frames from a chunk with frames to spare
		if err := as.Write(v.Start+i*PageSize, []byte{byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	first, _ := v.Entry(2)
	frame0, chunk := &first.Frame[0], len(as.chunk) // any newFrame call shortens the chunk
	page := make([]byte, PageSize)
	cycle := func() {
		page[0]++
		if err := as.MarkAbsent(v.Start, 2); err != nil {
			t.Fatal(err)
		}
		if e, ok := v.Entry(2); !ok || !e.Absent || e.Dirty || e.Frame != nil {
			t.Fatalf("placeholder shows its stale frame: %+v", e)
		}
		if _, _, fr, err := as.PageAt(v.Start+2*PageSize, 0); fr != nil || !errors.Is(err, ErrPageAbsent) {
			t.Fatalf("PageAt on the placeholder: frame %v, err %v", fr != nil, err)
		}
		if err := as.FillPage(v.Start, 2, page); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	e, _ := v.Entry(2)
	if &e.Frame[0] != frame0 || len(e.Frame) != LineSize || len(as.chunk) != chunk {
		t.Fatalf("the fill moved the page to another frame (%d bytes), or cut %d bytes of new ones", len(e.Frame), chunk-len(as.chunk))
	}
	if got, _ := as.Read(v.Start+2*PageSize, PageSize); !bytes.Equal(got, page) || e.Dirty || e.Absent {
		t.Fatalf("refilled page: dirty %v absent %v, content differs %v", e.Dirty, e.Absent, !bytes.Equal(got, page))
	}
	as.OnMissing = nil
	if n := testing.AllocsPerRun(100, cycle); n != 0 || len(as.chunk) != chunk {
		t.Fatalf("MarkAbsent then FillPage of a resident page: %.1f allocations, %d bytes of frames cut", n, chunk-len(as.chunk))
	}

	page[LineSize] = 9 // one byte past the stale line
	cycle()
	if e, _ := v.Entry(2); len(e.Frame) != PageSize || !bytes.Equal(e.Frame, page) {
		t.Fatalf("a fill past the stale frame left a frame of %d bytes (content differs %v)", len(e.Frame), !bytes.Equal(e.Frame, page))
	}
}

func TestAccountingBytes(t *testing.T) {
	as := NewAddressSpace()
	v := as.Mmap(10*PageSize, "rw-")
	if as.MappedBytes() != 10*PageSize {
		t.Fatal("mapped bytes wrong")
	}
	as.Touch(v.Start)
	as.Touch(v.Start + 5*PageSize)
	if as.ResidentBytes() != 2*PageSize {
		t.Fatal("resident bytes wrong")
	}
}

func TestWriteReadProperty(t *testing.T) {
	as := NewAddressSpace()
	v := as.Mmap(64*PageSize, "rw-")
	f := func(off uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		o := uint64(off) % (60 * PageSize)
		if err := as.Write(v.Start+o, data); err != nil {
			return false
		}
		got, err := as.Read(v.Start+o, len(data))
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFDTable(t *testing.T) {
	ft := NewFDTable()
	fd1 := ft.Install(&RegularFile{Path: "/var/game/map.bsp"})
	fd2 := ft.Install(&RegularFile{Path: "/var/log/x"})
	if fd1 != 3 || fd2 != 4 {
		t.Fatalf("fds = %d,%d", fd1, fd2)
	}
	if err := ft.InstallAt(10, &RegularFile{Path: "/z"}); err != nil {
		t.Fatal(err)
	}
	if err := ft.InstallAt(10, &RegularFile{}); err == nil {
		t.Fatal("duplicate fd accepted")
	}
	if got := ft.FDs(); len(got) != 3 || got[0] != 3 || got[2] != 10 {
		t.Fatalf("FDs order = %v", got)
	}
	ft.CloseFD(4)
	if ft.Len() != 2 || ft.Get(4) != nil {
		t.Fatal("close failed")
	}
	// nextFD advanced past InstallAt.
	if fd := ft.Install(&RegularFile{}); fd != 11 {
		t.Fatalf("next fd = %d, want 11", fd)
	}
}

func TestSpawnAndThreads(t *testing.T) {
	c := NewCluster(simtime.NewScheduler(), 1)
	n := c.Nodes[0]
	p := n.Spawn("zone_serv1", 3)
	if len(p.Threads) != 3 {
		t.Fatal("thread count")
	}
	seen := map[int]bool{}
	for _, th := range p.Threads {
		if seen[th.TID] {
			t.Fatal("duplicate TID")
		}
		seen[th.TID] = true
		if th.Regs.PC == 0 {
			t.Fatal("registers not initialized")
		}
	}
	if n.NumProcesses() != 1 {
		t.Fatal("process table")
	}
	p.Exit()
	if n.NumProcesses() != 0 {
		t.Fatal("exit did not remove process")
	}
}

func TestSignalAbandonsSyscall(t *testing.T) {
	c := NewCluster(simtime.NewScheduler(), 2)
	a, b := c.Nodes[0], c.Nodes[1]
	// Connect a socket between the nodes over the local network.
	lst := netstack.NewTCPSocket(b.Stack)
	if err := lst.Listen(b.LocalIP, 3306); err != nil {
		t.Fatal(err)
	}
	sk := netstack.NewTCPSocket(a.Stack)
	if err := sk.Connect(b.LocalIP, 3306); err != nil {
		t.Fatal(err)
	}
	c.Sched.RunFor(time.Second)
	p := a.Spawn("app", 2)
	p.FDs.Install(&TCPFile{Sock: sk})
	p.Threads[0].EnterSyscall(sk, false) // locks the socket
	if !sk.Locked() {
		t.Fatal("socket not locked by syscall")
	}
	ran := 0
	p.SigHandlers[SIGCKPT] = func(pp *Process, th *Thread) { ran++ }
	p.Signal(SIGCKPT)
	if sk.Locked() {
		t.Fatal("signal did not force syscall abandonment")
	}
	if ran != 2 {
		t.Fatalf("handler ran %d times, want once per thread", ran)
	}
	if p.Threads[0].Syscall != nil {
		t.Fatal("syscall state not cleared")
	}
}

func TestSignalReleasesRecvWait(t *testing.T) {
	c := NewCluster(simtime.NewScheduler(), 1)
	n := c.Nodes[0]
	sk := netstack.NewTCPSocket(n.Stack)
	p := n.Spawn("app", 1)
	p.Threads[0].EnterSyscall(sk, true)
	p.Signal(SIGCKPT)
	if sk.PrequeueBusy() {
		t.Fatal("prequeue busy after signal")
	}
}

func TestProcessLoopAndFreeze(t *testing.T) {
	c := NewCluster(simtime.NewScheduler(), 1)
	n := c.Nodes[0]
	p := n.Spawn("rt", 1)
	ticks := 0
	p.Tick = func(*Process) { ticks++ }
	n.StartLoop(p, 50*time.Millisecond)
	c.Sched.RunUntil(500 * time.Millisecond)
	if ticks != 10 {
		t.Fatalf("ticks = %d, want 10", ticks)
	}
	p.State = ProcFrozen
	c.Sched.RunUntil(time.Second)
	if ticks != 10 {
		t.Fatalf("frozen process ticked: %d", ticks)
	}
	p.State = ProcRunning
	c.Sched.RunUntil(1500 * time.Millisecond)
	if ticks != 20 {
		t.Fatalf("ticks after thaw = %d, want 20", ticks)
	}
	n.StopLoop(p)
	c.Sched.RunUntil(2 * time.Second)
	if ticks != 20 {
		t.Fatal("loop ran after StopLoop")
	}
}

func TestUtilizationSaturates(t *testing.T) {
	c := NewCluster(simtime.NewScheduler(), 1)
	n := c.Nodes[0]
	for i := 0; i < 5; i++ {
		p := n.Spawn("w", 1)
		p.CPUDemand = 0.8
	}
	if u := n.Utilization(); u != 1 {
		t.Fatalf("utilization = %v, want saturated 1", u)
	}
	for _, p := range n.Processes()[:4] {
		p.Exit()
	}
	if u := n.Utilization(); u != 0.4 { // 0.8 demand / 2 cores
		t.Fatalf("utilization = %v, want 0.4", u)
	}
}

// TestUtilizationBitReproducible: float addition is not associative, so
// the demand sum must not depend on the order processes were attached in
// (nor on map iteration order, which is what it followed once): twenty
// constructions of the same three-process node report the same bits.
func TestUtilizationBitReproducible(t *testing.T) {
	demands := []float64{0.1, 0.2, 0.3} // (0.1+0.2)+0.3 != 0.1+(0.2+0.3)
	var first uint64
	for trial := 0; trial < 20; trial++ {
		n := NewCluster(simtime.NewScheduler(), 1).Nodes[0]
		procs := make([]*Process, len(demands))
		for i, d := range demands {
			procs[i] = n.Spawn("w", 1)
			procs[i].CPUDemand = d
			n.Detach(procs[i])
		}
		rand.New(rand.NewSource(int64(trial))).Shuffle(len(procs), func(i, j int) { procs[i], procs[j] = procs[j], procs[i] })
		for _, p := range procs {
			n.Adopt(p)
		}
		for i, p := range n.Processes() {
			if i > 0 && n.Processes()[i-1].PID >= p.PID {
				t.Fatal("Processes() not in PID order")
			}
		}
		u := math.Float64bits(n.Utilization())
		if trial == 0 {
			first = u
		} else if u != first {
			t.Fatalf("construction %d: utilization bits %#x, construction 0 had %#x", trial, u, first)
		}
	}
}

// TestProcessesIsASnapshotUnderItsRange: Processes lends the node's own
// table, so the writers must leave a lent table alone. A range whose body
// exits, detaches, spawns and adopts — Node.Fail, the conductor's drain,
// the fence's isolate do the first two — visits exactly the processes
// that were there when it started, each once, in PID order.
func TestProcessesIsASnapshotUnderItsRange(t *testing.T) {
	c := NewCluster(simtime.NewScheduler(), 2)
	n, other := c.Nodes[0], c.Nodes[1]
	var want []int
	for i := 0; i < 12; i++ {
		want = append(want, n.Spawn("w", 1).PID)
	}
	guest := other.Spawn("guest", 1)
	other.Detach(guest)
	guest.PID = 5 // taken here: Adopt renumbers it past every PID below

	lent := n.Processes()
	var seen []int
	for i, p := range lent {
		seen = append(seen, p.PID)
		switch i % 4 {
		case 0:
			p.Exit() // removes the entry being visited
		case 1:
			n.Detach(lent[len(lent)-1-i/4]) // removes one still ahead
		case 2:
			n.Spawn("late", 1) // appends behind the range
		case 3:
			if guest != nil {
				n.Adopt(guest)
				guest = nil
			}
		}
	}
	if !slices.Equal(seen, want) {
		t.Fatalf("range visited PIDs %v, want the table as lent %v", seen, want)
	}
	for i, p := range lent {
		if p == nil || p.PID != want[i] {
			t.Fatalf("lent table changed under its holder at %d: %v", i, p)
		}
	}
	// The node's own view moved on: 3 exited, 3 detached, 3 spawned, 1 adopted.
	now := n.Processes()
	if len(now) != 12-3-3+3+1 || n.NumProcesses() != len(now) {
		t.Fatalf("%d processes after the loop", len(now))
	}
	for i := 1; i < len(now); i++ {
		if now[i-1].PID >= now[i].PID {
			t.Fatalf("table out of PID order after the loop: %d before %d", now[i-1].PID, now[i].PID)
		}
	}
}

func TestAdoptPreservesOrRemapsPID(t *testing.T) {
	c := NewCluster(simtime.NewScheduler(), 2)
	a, b := c.Nodes[0], c.Nodes[1]
	p := a.Spawn("mover", 1)
	pid := p.PID
	a.Detach(p)
	b.Adopt(p)
	if p.PID != pid || p.Node != b {
		t.Fatal("adopt changed a free PID")
	}
	// Occupy the PID on a third node and adopt there: must remap.
	c2 := NewCluster(simtime.NewScheduler(), 1)
	n3 := c2.Nodes[0]
	q := n3.Spawn("occupant", 1)
	if q.PID != pid {
		t.Skip("pid allocation changed; adjust test")
	}
	b.Detach(p)
	n3.Adopt(p)
	if p.PID == pid {
		t.Fatal("PID collision not remapped")
	}
}

// TestArriveMatchesSpawnDetachAdopt: Arrive builds a restored process
// with one table insertion, and numbers it exactly as the sequence the
// destination ran before it — Spawn a bootstrap process, Detach it, set
// the requested PID, Adopt, replace the bootstrap thread with fresh
// ones. Two nodes with the same history run one each, for requested PIDs
// that are free and taken, and agree on the PID, nextPID, nextTID, the
// table's order and the PID the next Spawn receives.
func TestArriveMatchesSpawnDetachAdopt(t *testing.T) {
	spawnDetachAdopt := func(n *Node, pid, threads int) *Process {
		p := n.Spawn("guest", 0)
		n.Detach(p)
		p.PID = pid
		n.Adopt(p)
		p.Threads = p.Threads[:0]
		for i := 0; i < threads; i++ {
			p.NewThread()
		}
		return p
	}
	node := func() *Node {
		n := NewCluster(simtime.NewScheduler(), 1).Nodes[0]
		for i := 0; i < 3; i++ {
			n.Spawn("resident", 1) // PIDs 101, 102, 103
		}
		return n
	}
	pids := func(n *Node) []int {
		var out []int
		for _, p := range n.Processes() {
			out = append(out, p.PID)
		}
		return out
	}
	for _, tc := range []struct {
		name         string
		pid, threads int
	}{
		{"free below", 7, 2},
		{"free above", 500, 1},
		{"taken", 102, 3},
		{"taken, no threads", 101, 0},
	} {
		old, cur := node(), node()
		want := spawnDetachAdopt(old, tc.pid, tc.threads)
		as := NewAddressSpace()
		got := cur.Arrive("guest", tc.pid, as, tc.threads)
		if got.PID != want.PID || cur.nextPID != old.nextPID {
			t.Errorf("%s: PID %d, nextPID %d; the old sequence gave %d, %d", tc.name, got.PID, cur.nextPID, want.PID, old.nextPID)
		}
		if got.nextTID != want.nextTID || len(got.Threads) != len(want.Threads) {
			t.Errorf("%s: nextTID %d over %d threads; the old sequence gave %d over %d",
				tc.name, got.nextTID, len(got.Threads), want.nextTID, len(want.Threads))
		}
		if !slices.Equal(pids(cur), pids(old)) {
			t.Errorf("%s: table %v; the old sequence gave %v", tc.name, pids(cur), pids(old))
		}
		if g, w := cur.Spawn("next", 1).PID, old.Spawn("next", 1).PID; g != w {
			t.Errorf("%s: the next Spawn got PID %d; after the old sequence %d", tc.name, g, w)
		}
		if got.AS != as || got.Node != cur || got.State != ProcRunning || got.FDs == nil || got.SigHandlers == nil {
			t.Errorf("%s: the arrived process is not built around its space on its node: %+v", tc.name, got)
		}
	}
}

func TestClusterConnectivityLocalAndPublic(t *testing.T) {
	sched := simtime.NewScheduler()
	c := NewCluster(sched, 3)
	// Local: node1 -> node3 TCP.
	lst := netstack.NewTCPSocket(c.Nodes[2].Stack)
	if err := lst.Listen(c.Nodes[2].LocalIP, 3306); err != nil {
		t.Fatal(err)
	}
	sk := netstack.NewTCPSocket(c.Nodes[0].Stack)
	if err := sk.Connect(c.Nodes[2].LocalIP, 3306); err != nil {
		t.Fatal(err)
	}
	sched.RunFor(time.Second)
	if sk.State != netstack.TCPEstablished {
		t.Fatal("in-cluster connect failed")
	}
	// Public: external client UDP to a port owned by node2.
	us := netstack.NewUDPSocket(c.Nodes[1].Stack)
	if err := us.Bind(c.ClusterIP, 27960); err != nil {
		t.Fatal(err)
	}
	ext := c.NewExternalHost("player")
	cu := netstack.NewUDPSocket(ext)
	extAddr, err := ext.SourceAddrFor(c.ClusterIP)
	if err != nil {
		t.Fatal(err)
	}
	cu.BindEphemeral(extAddr)
	cu.SendTo(c.ClusterIP, 27960, []byte("join"))
	sched.RunFor(time.Second)
	d, ok := us.Recv()
	if !ok || string(d.Payload) != "join" {
		t.Fatal("public path failed")
	}
	// And the reply reaches the client despite the shared cluster IP.
	us.SendTo(d.SrcIP, d.SrcPort, []byte("welcome"))
	sched.RunFor(time.Second)
	if d, ok := cu.Recv(); !ok || string(d.Payload) != "welcome" {
		t.Fatal("reply path failed")
	}
}

func TestNodeByLocalIPAndRemove(t *testing.T) {
	c := NewCluster(simtime.NewScheduler(), 3)
	n2 := c.Nodes[1]
	if c.NodeByLocalIP(n2.LocalIP) != n2 {
		t.Fatal("lookup failed")
	}
	c.RemoveNode(n2)
	if c.NodeByLocalIP(n2.LocalIP) != nil {
		t.Fatal("removed node still found")
	}
	if len(c.Nodes) != 2 || c.Router.ServerCount() != 2 {
		t.Fatal("fabric not detached")
	}
}

func TestNodeFailKillsProcesses(t *testing.T) {
	c := NewCluster(simtime.NewScheduler(), 2)
	n := c.Nodes[0]
	p := n.Spawn("victim", 1)
	n.Fail(c)
	if p.State != ProcExited || n.Alive {
		t.Fatal("fail did not kill processes")
	}
}
