package proc

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// The page table is checked differentially: every program of mappings,
// resizes, stores, placeholders, fills and dirty-bit clears runs against
// an AddressSpace and against the structure it replaced — one
// map[uint64]*refPage per region of full 4 KiB pages, kept here — side
// by side, and after every step the two must agree on everything a
// caller can observe, and the table on its own invariants. The oracle
// also models the frame rule: how long the frame under each page must
// be.

type refPage struct {
	data          []byte // nil for a placeholder
	dirty, absent bool
	// frame is the length the page's frame must have (a placeholder's:
	// the stale one it keeps, 0 for none): the lines the first store
	// reached, PageSize once a store passed its end.
	frame int
}

// reach is the frame rule for a store (or fill) up to byte end.
func (p *refPage) reach(end int) {
	switch {
	case p.frame == 0:
		p.frame = FrameLen(end)
	case end > p.frame:
		p.frame = PageSize
	}
}

type refVMA struct {
	start, end uint64
	pages      map[uint64]*refPage
}

func (v *refVMA) npages() uint64 { return (v.end - v.start) / PageSize }

type refSpace struct {
	vmas    []*refVMA // sorted by start
	nextMap uint64
	faults  [][2]uint64
}

var errRef = errors.New("ref: rejected")

func (r *refSpace) insert(v *refVMA) {
	r.vmas = append(r.vmas, v)
	sort.Slice(r.vmas, func(i, j int) bool { return r.vmas[i].start < r.vmas[j].start })
}

func (r *refSpace) mmap(length uint64) *refVMA {
	v := &refVMA{start: r.nextMap, end: r.nextMap + length, pages: map[uint64]*refPage{}}
	r.nextMap += length + PageSize
	r.insert(v)
	return v
}

func (r *refSpace) mmapFixed(start, end uint64) error {
	if start%PageSize != 0 || end%PageSize != 0 || end <= start {
		return errRef
	}
	for _, v := range r.vmas {
		if start < v.end && v.start < end {
			return errRef
		}
	}
	r.insert(&refVMA{start: start, end: end, pages: map[uint64]*refPage{}})
	if end+PageSize > r.nextMap {
		r.nextMap = end + PageSize
	}
	return nil
}

func (r *refSpace) munmap(start uint64) error {
	for i, v := range r.vmas {
		if v.start == start {
			r.vmas = append(r.vmas[:i], r.vmas[i+1:]...)
			return nil
		}
	}
	return errRef
}

func (r *refSpace) resize(start, newLen uint64) error {
	newLen = (newLen + PageSize - 1) / PageSize * PageSize
	newEnd := start + newLen
	if newLen == 0 || newEnd <= start {
		return errRef
	}
	for i, v := range r.vmas {
		if v.start != start {
			continue
		}
		if i+1 < len(r.vmas) && newEnd > r.vmas[i+1].start {
			return errRef
		}
		for idx := range v.pages {
			if idx*PageSize >= newEnd-v.start {
				delete(v.pages, idx)
			}
		}
		v.end = newEnd
		if newEnd+PageSize > r.nextMap {
			r.nextMap = newEnd + PageSize
		}
		return nil
	}
	return errRef
}

func (r *refSpace) find(addr uint64) *refVMA {
	for _, v := range r.vmas {
		if v.start <= addr && addr < v.end {
			return v
		}
	}
	return nil
}

// store resolves addr for a write up to byte end of its page the way
// Write and Touch do.
func (r *refSpace) store(addr uint64, end int) (*refPage, error) {
	v := r.find(addr)
	if v == nil {
		return nil, errRef
	}
	idx := (addr - v.start) / PageSize
	p := v.pages[idx]
	if p == nil {
		p = &refPage{data: make([]byte, PageSize)}
		v.pages[idx] = p
	} else if p.absent {
		r.faults = append(r.faults, [2]uint64{v.start, idx})
		return nil, ErrPageAbsent
	}
	p.dirty = true
	p.reach(end)
	return p, nil
}

func (r *refSpace) write(addr uint64, data []byte) error {
	for len(data) > 0 {
		off := int(addr % PageSize)
		p, err := r.store(addr, min(off+len(data), PageSize))
		if err != nil {
			return err
		}
		n := copy(p.data[off:], data)
		data = data[n:]
		addr += uint64(n)
	}
	return nil
}

func (r *refSpace) touch(addr uint64) error {
	p, err := r.store(addr, int(addr%PageSize)+1)
	if err != nil {
		return err
	}
	p.data[addr%PageSize]++
	return nil
}

func (r *refSpace) named(start, idx uint64) *refVMA {
	if v := r.find(start); v != nil && v.start == start && idx < v.npages() {
		return v
	}
	return nil
}

func (r *refSpace) markAbsent(start, idx uint64) error {
	v := r.named(start, idx)
	if v == nil {
		return errRef
	}
	stale := 0
	if p := v.pages[idx]; p != nil {
		stale = p.frame
	}
	v.pages[idx] = &refPage{absent: true, frame: stale}
	return nil
}

func (r *refSpace) fillPage(start, idx uint64, data []byte) error {
	v := r.named(start, idx)
	if v == nil {
		return errRef
	}
	p := v.pages[idx]
	if len(data) != PageSize || p == nil || !p.absent {
		return errRef
	}
	end := len(bytes.TrimRight(data, "\x00"))
	*p = refPage{data: bytes.Clone(data), frame: p.frame}
	p.reach(end)
	return nil
}

func (r *refSpace) clearDirty() {
	for _, v := range r.vmas {
		for _, p := range v.pages {
			p.dirty = false
		}
	}
}

// refs lists the pages matching keep in (region, index) order.
func (r *refSpace) refs(keep func(*refPage) bool) [][2]uint64 {
	var out [][2]uint64
	for _, v := range r.vmas {
		var idxs []uint64
		for idx, p := range v.pages {
			if keep(p) {
				idxs = append(idxs, idx)
			}
		}
		sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
		for _, idx := range idxs {
			out = append(out, [2]uint64{v.start, idx})
		}
	}
	return out
}

// asPair drives the two sides in lockstep.
type asPair struct {
	as     *AddressSpace
	ref    *refSpace
	faults [][2]uint64
	stamp  byte // content of the next store, so no two stores write the same bytes
}

func newASPair() *asPair {
	p := &asPair{as: NewAddressSpace(), ref: &refSpace{nextMap: 0x4000_0000}}
	p.as.OnMissing = func(start, idx uint64) { p.faults = append(p.faults, [2]uint64{start, idx}) }
	return p
}

// The op alphabet. Every step is four program bytes: the op, a region
// selector, and a 16-bit operand that picks pages and sizes.
const (
	opMmap = iota
	opMmapFixed
	opMunmap
	opResize
	opWrite
	opTouch
	opMarkAbsent
	opFillPage
	opClearDirty
	opStorePast    // a store one line or more past a resident page's frame: it regrows
	opFillStale    // a short page turned placeholder, then filled with longer content
	opResizeRegrow // a region's last page regrown to a full frame, then cut off by Resize
	nPTOps
)

// ptSizes are the region sizes in pages: one page, the 8-page service
// heap, and one under, at and over a leaf, and the mem128m heap.
var ptSizes = []uint64{1, 8, 511, 512, 513, 32768}

// ptResizes are resize targets in pages: within one leaf, across leaf
// edges both ways, far growth — and 0, which must be refused.
var ptResizes = []uint64{0, 1, 7, 8, 9, 300, 511, 512, 513, 600, 1023, 1024, 1025, 1500, 32768, 40000}

const (
	ptFixedBase   = 0x1000_0000_0000
	ptFixedStride = 1 << 28 // 65 536 pages apart: room to grow to 40 000
	ptMaxRegions  = 8
)

// pickPage turns the operand into a page index of an n-page region,
// biased to the first and last slots of leaves and bitmap words.
func pickPage(x uint16, n uint64) uint64 {
	edges := []uint64{0, 1, 7, 8, 63, 64, 65, 510, 511, 512, 513, 1023, 1024, n - 1, n - 2, n / 2}
	if e := edges[x%16]; x&0x10 == 0 && e < n {
		return e
	}
	return uint64(x) * 7919 % n
}

// pickIndex is pickPage for the calls that take an index from outside:
// one operand in eight names a page at or past the region's end.
func pickIndex(x uint16, n uint64) uint64 {
	if x>>13 == 7 {
		return []uint64{n, n + 1, n + leafPages, 1 << 40}[x%4]
	}
	return pickPage(x, n)
}

func (p *asPair) region(r byte) *refVMA {
	if len(p.ref.vmas) == 0 {
		return &refVMA{start: 0xdead000, end: 0xdead000 + PageSize} // names nothing: both sides must refuse
	}
	return p.ref.vmas[int(r)%len(p.ref.vmas)]
}

func (p *asPair) data(n int) []byte {
	p.stamp++
	b := make([]byte, n)
	for i := range b {
		b[i] = p.stamp + byte(i)
	}
	return b
}

// step applies one operation to both sides and requires the same
// verdict from each.
func (p *asPair) step(op, r byte, x uint16) error {
	var got, want error
	v := p.region(r)
	switch op % nPTOps {
	case opMmap:
		if len(p.ref.vmas) >= ptMaxRegions {
			got, want = p.as.Munmap(v.start), p.ref.munmap(v.start)
			break
		}
		n := ptSizes[int(r)%len(ptSizes)] * PageSize
		if gv, wv := p.as.Mmap(n, "rw-"), p.ref.mmap(n); gv.Start != wv.start || gv.End != wv.end {
			return fmt.Errorf("Mmap placed [%#x,%#x), oracle [%#x,%#x)", gv.Start, gv.End, wv.start, wv.end)
		}
	case opMmapFixed:
		start := ptFixedBase + uint64(x%ptMaxRegions)*ptFixedStride
		end := start + ptSizes[int(r)%len(ptSizes)]*PageSize
		_, got = p.as.MmapFixed(start, end, "rw-")
		want = p.ref.mmapFixed(start, end)
	case opMunmap:
		got, want = p.as.Munmap(v.start), p.ref.munmap(v.start)
	case opResize:
		n := ptResizes[x%16]
		switch x >> 12 {
		case 1:
			n = v.npages() - 1
		case 2:
			n = v.npages() + 1
		}
		got, want = p.as.Resize(v.start, n*PageSize), p.ref.resize(v.start, n*PageSize)
	case opWrite:
		// One byte, part of a page, up to the page's end, across a page
		// edge (two leaves when the page is a leaf's last), two pages.
		shape := [][2]int{{0, 1}, {100, 100}, {0, PageSize}, {4000, 200}, {0, 2 * PageSize}, {PageSize - 1, 2}}[int(r>>3)%6]
		addr := v.start + pickPage(x, v.npages())*PageSize + uint64(shape[0])
		data := p.data(shape[1])
		got, want = p.as.Write(addr, data), p.ref.write(addr, data)
	case opTouch:
		addr := v.start + pickPage(x, v.npages())*PageSize + uint64(x)%PageSize
		got, want = p.as.Touch(addr), p.ref.touch(addr)
	case opMarkAbsent:
		idx := pickIndex(x, v.npages())
		got, want = p.as.MarkAbsent(v.start, idx), p.ref.markAbsent(v.start, idx)
	case opFillPage:
		idx := pickIndex(x, v.npages())
		data := p.data([]int{0, 10, PageSize, PageSize + 5}[int(r>>3)%4])
		got, want = p.as.FillPage(v.start, idx, data), p.ref.fillPage(v.start, idx, data)
	case opClearDirty:
		p.as.ClearDirty()
		p.ref.clearDirty()
	case opStorePast:
		idx := pickPage(x, v.npages())
		off := int(x>>4) % PageSize
		if gv := p.as.findVMA(v.start); gv != nil {
			if e, ok := gv.Entry(idx); ok && !e.Absent && len(e.Frame) < PageSize {
				off = len(e.Frame) + int(x>>4)%(PageSize-len(e.Frame))
			}
		}
		addr, data := v.start+idx*PageSize+uint64(off), p.data(1+int(r)%8)
		got, want = p.as.Write(addr, data), p.ref.write(addr, data)
	case opFillStale:
		idx := pickPage(x, v.npages())
		addr := v.start + idx*PageSize
		if got, want = p.as.Touch(addr), p.ref.touch(addr); got != nil || want != nil {
			break
		}
		if got, want = p.as.MarkAbsent(v.start, idx), p.ref.markAbsent(v.start, idx); got != nil || want != nil {
			break
		}
		data := make([]byte, PageSize) // content up to a byte a line or more past the stale frame, zeros after
		copy(data, p.data(LineSize+int(x>>4)%(PageSize-LineSize)))
		got, want = p.as.FillPage(v.start, idx, data), p.ref.fillPage(v.start, idx, data)
	case opResizeRegrow:
		n := v.npages()
		last := v.start + (n-1)*PageSize
		for _, addr := range []uint64{last, last + PageSize - 1} {
			if got, want = p.as.Touch(addr), p.ref.touch(addr); got != nil || want != nil {
				break
			}
		}
		if got == nil && want == nil && n > 1 {
			got, want = p.as.Resize(v.start, (n-1)*PageSize), p.ref.resize(v.start, (n-1)*PageSize)
		}
	}
	if (got == nil) != (want == nil) || errors.Is(got, ErrPageAbsent) != errors.Is(want, ErrPageAbsent) {
		return fmt.Errorf("op %d on [%#x,%#x) operand %#x: error %v, oracle %v", op%nPTOps, v.start, v.end, x, got, want)
	}
	return nil
}

// check compares everything observable, then the table's own invariants.
func (p *asPair) check() error {
	as, ref := p.as, p.ref
	if len(as.VMAs()) != len(ref.vmas) {
		return fmt.Errorf("%d regions, oracle %d", len(as.VMAs()), len(ref.vmas))
	}
	var resident, mapped uint64
	absent := 0
	frames := map[*byte]uint64{}
	for i, w := range ref.vmas {
		v := as.VMAs()[i]
		if v.Start != w.start || v.End != w.end {
			return fmt.Errorf("region %d is [%#x,%#x), oracle [%#x,%#x)", i, v.Start, v.End, w.start, w.end)
		}
		if v.Resident() != len(w.pages) {
			return fmt.Errorf("region %#x: Resident %d, oracle %d", v.Start, v.Resident(), len(w.pages))
		}
		resident += uint64(len(w.pages)) * PageSize
		mapped += w.end - w.start
		dirty := 0
		for idx, wp := range w.pages {
			e, ok := v.Entry(idx)
			if !ok || e.Index != idx || e.Dirty != wp.dirty || e.Absent != wp.absent {
				return fmt.Errorf("page %#x+%d: entry %v dirty %v absent %v, oracle dirty %v absent %v",
					v.Start, idx, ok, e.Dirty, e.Absent, wp.dirty, wp.absent)
			}
			got, err := as.Read(v.Start+idx*PageSize, PageSize)
			if wp.absent {
				absent++
				if !errors.Is(err, ErrPageAbsent) {
					return fmt.Errorf("page %#x+%d: read of a placeholder returned %v", v.Start, idx, err)
				}
				p.ref.faults = append(p.ref.faults, [2]uint64{v.Start, idx})
				continue
			}
			if err != nil || !bytes.Equal(got, wp.data) {
				return fmt.Errorf("page %#x+%d: Read differs from the oracle (err %v)", v.Start, idx, err)
			}
			if wp.dirty {
				dirty++
			}
			// The frame rule: the frame is the page up to a line the
			// oracle predicts, with no spare capacity, and the page past
			// its end is zero.
			if n := len(e.Frame); n != cap(e.Frame) || n > PageSize || n == 0 || n%LineSize != 0 || n != wp.frame {
				return fmt.Errorf("page %#x+%d: frame len %d cap %d, oracle %d", v.Start, idx, n, cap(e.Frame), wp.frame)
			}
			if !bytes.Equal(e.Frame, wp.data[:len(e.Frame)]) {
				return fmt.Errorf("page %#x+%d: frame differs from the oracle's page", v.Start, idx)
			}
			if other, dup := frames[&e.Frame[0]]; dup {
				return fmt.Errorf("page %#x+%d shares its frame with page at %#x", v.Start, idx, other)
			}
			frames[&e.Frame[0]] = v.Start + idx*PageSize
		}
		if v.DirtyCount() != dirty {
			return fmt.Errorf("region %#x: DirtyCount %d, oracle %d", v.Start, v.DirtyCount(), dirty)
		}
		// The visitors yield exactly the oracle's keys, in order.
		var all, dirt []uint64
		v.Entries(func(e PTE) { all = append(all, e.Index) })
		v.DirtyEntries(func(e PTE) { dirt = append(dirt, e.Index) })
		if len(all) != len(w.pages) || len(dirt) != dirty || !sort.SliceIsSorted(all, func(i, j int) bool { return all[i] < all[j] }) {
			return fmt.Errorf("region %#x: Entries visited %d (oracle %d), DirtyEntries %d (oracle %d), or out of order",
				v.Start, len(all), len(w.pages), len(dirt), dirty)
		}
		for _, idx := range all {
			if w.pages[idx] == nil {
				return fmt.Errorf("region %#x: Entries visited page %d, which the oracle does not hold", v.Start, idx)
			}
		}
		// An index past the end names nothing, whatever the leaf's size.
		for _, idx := range []uint64{w.npages(), w.npages() + leafPages, 1 << 40} {
			if _, ok := v.Entry(idx); ok {
				return fmt.Errorf("region %#x (%d pages): Entry(%d) exists", v.Start, w.npages(), idx)
			}
		}
		if err := checkTable(v); err != nil {
			return fmt.Errorf("region %#x: %v", v.Start, err)
		}
	}
	if as.ResidentBytes() != resident || as.MappedBytes() != mapped || as.AbsentCount() != absent {
		return fmt.Errorf("ResidentBytes %d MappedBytes %d AbsentCount %d, oracle %d %d %d",
			as.ResidentBytes(), as.MappedBytes(), as.AbsentCount(), resident, mapped, absent)
	}
	for what, pair := range map[string]struct {
		got  []DirtyRef
		want [][2]uint64
	}{
		"DirtyPages":  {as.DirtyPages(), ref.refs(func(p *refPage) bool { return p.dirty })},
		"AbsentPages": {as.AbsentPages(), ref.refs(func(p *refPage) bool { return p.absent })},
	} {
		if len(pair.got) != len(pair.want) {
			return fmt.Errorf("%s lists %d pages, oracle %d", what, len(pair.got), len(pair.want))
		}
		for i, w := range pair.want {
			if g := pair.got[i]; g.VMA.Start != w[0] || g.PageIndex != w[1] {
				return fmt.Errorf("%s[%d] = %#x+%d, oracle %#x+%d", what, i, g.VMA.Start, g.PageIndex, w[0], w[1])
			}
		}
	}
	if fmt.Sprint(p.faults) != fmt.Sprint(ref.faults) {
		return fmt.Errorf("OnMissing saw %v, oracle %v", p.faults, ref.faults)
	}
	p.faults, ref.faults = p.faults[:0], ref.faults[:0]
	return nil
}

// checkTable verifies what the table promises about itself: leaves
// sorted by base and sized to the region, a frame wherever the present
// bit is set and nowhere but under a present or an absent bit (a
// placeholder may keep the stale frame of the page it replaced), dirty
// inside present, absent outside it, no bit past a leaf's last slot, and
// the counters equal to the popcounts.
func checkTable(v *VMA) error {
	present, absent := 0, 0
	for i := range v.leaves {
		l := &v.leaves[i]
		if l.base%leafPages != 0 || l.base >= v.pages() || (i > 0 && v.leaves[i-1].base >= l.base) {
			return fmt.Errorf("leaf %d has base %d in a %d-page region", i, l.base, v.pages())
		}
		if want := min(leafPages, v.pages()-l.base); uint64(len(l.frames)) != want {
			return fmt.Errorf("leaf at %d has %d slots, the region holds %d there", l.base, len(l.frames), want)
		}
		if words := (len(l.frames) + 63) / 64; len(l.present) != words || len(l.dirty) != words || len(l.absent) != words || len(l.lines) != (len(l.frames)+7)/8 {
			return fmt.Errorf("leaf at %d: bitmaps of %d/%d/%d words and %d length words for %d slots", l.base, len(l.present), len(l.dirty), len(l.absent), len(l.lines), len(l.frames))
		}
		for w := range l.present {
			if l.dirty[w]&^l.present[w] != 0 || l.absent[w]&l.present[w] != 0 {
				return fmt.Errorf("leaf at %d word %d: present %#x dirty %#x absent %#x", l.base, w, l.present[w], l.dirty[w], l.absent[w])
			}
			if past := w*64 + 64 - len(l.frames); past > 0 && (l.present[w]|l.absent[w])>>(64-past) != 0 {
				return fmt.Errorf("leaf at %d: bits set past slot %d", l.base, len(l.frames))
			}
		}
		for s, f := range l.frames {
			w, b := bit(uint64(s))
			if present, absent := l.present[w]&b != 0, l.absent[w]&b != 0; (f == nil && present) || (f != nil && !present && !absent) {
				return fmt.Errorf("leaf at %d slot %d: frame %v, present bit %v, absent bit %v", l.base, s, f != nil, present, absent)
			}
		}
		present += popcount(l.present)
		absent += popcount(l.absent)
	}
	if v.present != present || v.absent != absent {
		return fmt.Errorf("counters say %d present %d absent, bitmaps %d and %d", v.present, v.absent, present, absent)
	}
	return nil
}

// run executes a program, four bytes to a step, checking after each.
func (p *asPair) run(prog []byte) error {
	for i := 0; i+4 <= len(prog); i += 4 {
		if err := p.step(prog[i], prog[i+1], uint16(prog[i+2])<<8|uint16(prog[i+3])); err != nil {
			return fmt.Errorf("step %d: %v", i/4, err)
		}
		if err := p.check(); err != nil {
			return fmt.Errorf("after step %d (op %d): %v", i/4, prog[i]%nPTOps, err)
		}
	}
	return nil
}

// ptProgram draws a seeded program. Stores outnumber the rest so tables
// fill up between the geometry changes.
func ptProgram(seed int64, steps int) []byte {
	rnd := rand.New(rand.NewSource(seed))
	mix := []byte{opMmap, opMmapFixed, opMunmap, opResize, opResize, opWrite, opWrite, opWrite, opWrite,
		opTouch, opTouch, opTouch, opMarkAbsent, opMarkAbsent, opFillPage, opFillPage, opClearDirty,
		opStorePast, opFillStale, opResizeRegrow}
	prog := make([]byte, 0, 4*steps)
	for i := 0; i < steps; i++ {
		prog = append(prog, mix[rnd.Intn(len(mix))], byte(rnd.Intn(256)), byte(rnd.Intn(256)), byte(rnd.Intn(256)))
	}
	return prog
}

func TestPageTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		if err := newASPair().run(ptProgram(seed, 300)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestPageTableResizeShapes scripts the resizes a random program reaches
// only by luck, on every region size: populate the edges of leaves and
// bitmap words, then shrink across a leaf edge, shrink inside a leaf,
// grow after populate, grow and touch the new tail. Each round leaves a
// placeholder holding a stale frame for the next resize to drop or keep:
// it counts as absent either way.
func TestPageTableResizeShapes(t *testing.T) {
	for _, pages := range ptSizes {
		for _, to := range [][]uint64{{1}, {7, 9}, {300, 700}, {511, 512, 513}, {513, 511}, {1024, 100, 40000}, {40000, 513, 512, 8}} {
			p := newASPair()
			start := uint64(ptFixedBase)
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%d pages, resizes %v: %v", pages, to, err)
				}
			}
			_, err := p.as.MmapFixed(start, start+pages*PageSize, "rw-")
			must(err)
			must(p.ref.mmapFixed(start, start+pages*PageSize))
			populate := func(n uint64) {
				for _, idx := range []uint64{n - 1, n - 2, n / 2, 1024, 513, 512, 511, 510, 65, 64, 63, 8, 7, 1, 0} {
					if idx >= n {
						continue
					}
					addr, data := start+idx*PageSize+PageSize-2, p.data(4) // spills into the next page, or past the end
					if got, want := p.as.Write(addr, data), p.ref.write(addr, data); (got == nil) != (want == nil) {
						t.Fatalf("write at page %d of %d: error %v, oracle %v", idx, n, got, want)
					}
				}
				for _, idx := range []uint64{n / 3, n / 2} { // n/2 was just written: a placeholder over a stale frame
					must(p.as.MarkAbsent(start, idx))
					must(p.ref.markAbsent(start, idx))
				}
				must(p.check())
			}
			populate(pages)
			for _, n := range to {
				must(p.as.Resize(start, n*PageSize))
				must(p.ref.resize(start, n*PageSize))
				must(p.check())
				populate(n)
				p.as.ClearDirty()
				p.ref.clearDirty()
			}
		}
	}
}

// TestHostileGeometryCostsWhatItTouches: a region of 2^46 bytes with one
// byte written at its far end costs a leaf and a one-line frame — the
// directory is charged by touched extents, never by mapped length or by
// the highest index, and the frame by the lines stored to. Asserted on
// allocated bytes and objects, not on time.
func TestHostileGeometryCostsWhatItTouches(t *testing.T) {
	const end = 1 << 46
	var as *AddressSpace
	build := func() {
		as = NewAddressSpace()
		if _, err := as.MmapFixed(0x1000, end, "rw-"); err != nil {
			t.Fatal(err)
		}
		if err := as.Write(end-PageSize, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	build()
	runtime.ReadMemStats(&after)
	// A full leaf: 8-byte slots, three bitmaps and a byte of frame
	// length per slot. The change is the region, the space and the leaf
	// list.
	const leafBytes = leafPages*8 + 3*leafPages/8 + leafPages
	if got := after.TotalAlloc - before.TotalAlloc; got > LineSize+leafBytes+512 {
		t.Errorf("one byte at the far end of a 64 TiB region allocated %d bytes, want a line, a leaf (%d) and change", got, leafBytes)
	}
	if n := testing.AllocsPerRun(10, build); n > 8 {
		t.Errorf("one page at the far end of a 64 TiB region took %.0f allocations", n)
	}
	v := as.VMAs()[0]
	if e, ok := v.Entry(v.pages() - 1); !ok || len(e.Frame) != LineSize || e.Frame[0] != 1 || v.Resident() != 1 || len(as.DirtyPages()) != 1 {
		t.Fatalf("the page is not there: %+v %v", e, ok)
	}
	if err := as.Resize(0x1000, 1<<20); err != nil || v.Resident() != 0 || len(v.leaves) != 0 {
		t.Fatalf("shrinking the region away from its one page: err %v, %d resident, %d leaves", err, v.Resident(), len(v.leaves))
	}
}

// FuzzAddressSpaceOps runs arbitrary programs over the same alphabet.
func FuzzAddressSpaceOps(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(ptProgram(seed, 64))
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4*512 {
			prog = prog[:4*512]
		}
		if err := newASPair().run(prog); err != nil {
			t.Fatal(err)
		}
	})
}
