// Package proc models the operating-system substrate the migration
// mechanism runs on: cluster nodes, processes with threads, signals and
// file-descriptor tables, and virtual address spaces made of vm_area
// regions whose pages carry the dirty bit the precopy engine tracks.
package proc

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"unsafe"
)

// PageSize is the virtual memory page size.
const PageSize = 4096

// leafPages is the span of one page-table leaf: 512 entries, 2 MiB of
// address space (the reach of one x86-64 page-table page).
const leafPages = 512

// LineSize is the grain of a frame: a frame holds its page up to the
// last LineSize-byte line a store reached.
const LineSize = 64

// maxChunkFrames caps the chunk a page fault cuts frames from at eight
// full frames, 32 KiB, so a space never holds more than 32 KiB less a
// line in frames it has not handed out, past a restore slab's tail.
const maxChunkFrames = 8

// FrameLen is the length of the frame a store reaching byte end of a
// page (exclusive) is cut at: the lines it reaches, at least one, at
// most the page.
func FrameLen(end int) int {
	return min(max(end+LineSize-1, LineSize)/LineSize*LineSize, PageSize)
}

// PTE is one page-table entry as the visitors hand it out. The paper's
// implementation tracks dirtiness via the PTE dirty bit with the swap
// facility relaxed (§V-A); our pages are never swapped either. Absent
// marks a post-copy placeholder: the page's content still lives on the
// migration source, Frame is nil (whatever the table holds underneath),
// and any access faults (ErrPageAbsent) until FillPage delivers the
// data. Otherwise Frame is the page itself up to the last line a store
// reached — at least one line, at most PageSize, with no spare capacity;
// the rest of the page is zero — lent, not copied.
type PTE struct {
	Index  uint64
	Frame  []byte
	Dirty  bool
	Absent bool
}

// leaf is one radix leaf of a region's page table: a frame slot, three
// bits and a frame length for each page of a leafPages-aligned extent.
// It is sized to what the region can hold there — a full 512 slots in
// the middle of a large region, 8 slots and one bitmap word for an
// 8-page region — and re-sized when Resize moves the region's end
// through it.
//
// A frame holds its page up to the last line a store reached, and every
// byte of the page past its end is zero. The slot keeps where the frame
// starts and the length word keeps how many lines it spans; frame
// rebuilds the []byte from the two. A []byte slot would be 24 bytes
// where these are 9, and a leaf of 24-byte (or 16-byte) slots made the
// dense fault path measurably slower.
type leaf struct {
	base    uint64   // index of the first page covered, a multiple of leafPages
	frames  []*byte  // the first byte of slot i's frame; nil where no frame is installed
	present []uint64 // bit i: slot i holds a frame whose content is the page's
	dirty   []uint64 // bit i: written since the last ClearDirty (a subset of present)
	absent  []uint64 // bit i: post-copy placeholder (disjoint from present); a frame under it is stale
	lines   []uint64 // byte i%8 of word i/8: slot i's frame length in lines
}

// newLeaf returns an empty leaf of n slots. A full-size one comes from
// the page reserve when a retired space left one there; otherwise it is
// allocated: the slot array, and one array the three bitmaps and the
// frame lengths share.
func newLeaf(base uint64, n int) leaf {
	if n == leafPages {
		if l, ok := takeLeaf(); ok {
			l.base = base
			return l
		}
	}
	w := (n + 63) / 64
	bm := make([]uint64, 3*w+(n+7)/8)
	return leaf{base: base, frames: make([]*byte, n),
		present: bm[:w:w], dirty: bm[w : 2*w : 2*w], absent: bm[2*w : 3*w : 3*w], lines: bm[3*w:]}
}

// frame returns slot i's frame, nil when it holds none. Handed out it
// has len == cap, so an append to a lent page can never reach its
// neighbour in a chunk or slab.
func (l *leaf) frame(i uint64) []byte {
	p := l.frames[i]
	if p == nil {
		return nil // a length word may outlive a slot Resize cut off
	}
	return unsafe.Slice(p, int(l.lines[i/8]>>(i%8*8)&0xFF)*LineSize)
}

// setFrame makes f slot i's frame: f is a whole number of lines long, at
// least one and at most PageSize, with len == cap.
func (l *leaf) setFrame(i uint64, f []byte) {
	l.frames[i] = &f[0]
	sh := i % 8 * 8
	l.lines[i/8] = l.lines[i/8]&^(0xFF<<sh) | uint64(len(f)/LineSize)<<sh
}

// resize re-sizes the leaf to n slots. Entries past n are dropped; the
// counts of dropped frames and placeholders are returned.
func (l *leaf) resize(n int) (present, absent int) {
	nl := newLeaf(l.base, n)
	copy(nl.frames, l.frames)
	copy(nl.present, l.present)
	copy(nl.dirty, l.dirty)
	copy(nl.absent, l.absent)
	copy(nl.lines, l.lines)
	if tail := uint(n) % 64; tail != 0 {
		keep, w := uint64(1)<<tail-1, len(nl.present)-1
		nl.present[w] &= keep
		nl.dirty[w] &= keep
		nl.absent[w] &= keep
	}
	present = popcount(l.present) - popcount(nl.present)
	absent = popcount(l.absent) - popcount(nl.absent)
	*l = nl
	return present, absent
}

// bit locates slot i in a leaf's bitmaps: the word and the mask.
func bit(i uint64) (w, b uint64) { return i / 64, 1 << (i % 64) }

// pte reads slot i. A placeholder's stale frame stays inside the table:
// only FillPage, which overwrites it, may reach it.
func (l *leaf) pte(i uint64) PTE {
	w, b := bit(i)
	e := PTE{Index: l.base + i, Dirty: l.dirty[w]&b != 0, Absent: l.absent[w]&b != 0}
	if !e.Absent {
		e.Frame = l.frame(i)
	}
	return e
}

func popcount(words []uint64) int {
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	return n
}

// VMA is a continuous mapped memory area, the analogue of Linux
// vm_area_struct. Pages are materialized on first touch, and so is the
// page table under them: leaves holds only the 2 MiB extents that were
// ever touched, sorted by base, so a region costs by what it uses and
// never by its mapped length or its highest touched index.
type VMA struct {
	Start uint64 // inclusive, page aligned
	End   uint64 // exclusive, page aligned
	Perms string // e.g. "rw-", informational

	leaves  []leaf
	last    int // the leaf the previous lookup hit
	present int // entries holding a frame
	absent  int // placeholder entries
}

// Len returns the region size in bytes.
func (v *VMA) Len() uint64 { return v.End - v.Start }

func (v *VMA) pages() uint64 { return v.Len() / PageSize }

// Resident returns the number of materialized pages, placeholders
// included.
func (v *VMA) Resident() int { return v.present + v.absent }

// DirtyCount returns the number of pages with the dirty bit set.
func (v *VMA) DirtyCount() int {
	n := 0
	for i := range v.leaves {
		n += popcount(v.leaves[i].dirty)
	}
	return n
}

// search returns the position of the leaf with the given base, or where
// it would be inserted.
func (v *VMA) search(base uint64) (int, bool) {
	lo, hi := 0, len(v.leaves)
	for lo < hi {
		if m := int(uint(lo+hi) / 2); v.leaves[m].base < base {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(v.leaves) && v.leaves[lo].base == base
}

// leafAt returns the leaf holding a slot for page idx, or nil: the
// extent was never touched, or idx lies past the region's end.
func (v *VMA) leafAt(idx uint64) *leaf {
	base := idx &^ (leafPages - 1)
	i := v.last
	if i >= len(v.leaves) || v.leaves[i].base != base {
		var ok bool
		if i, ok = v.search(base); !ok {
			return nil
		}
		v.last = i
	}
	if l := &v.leaves[i]; idx-base < uint64(len(l.frames)) {
		return l
	}
	return nil
}

// leafFor is leafAt for a store: the leaf is created if the extent was
// never touched. idx must lie inside the region. The pointer is good
// until the next leafFor.
func (v *VMA) leafFor(idx uint64) *leaf {
	if l := v.leafAt(idx); l != nil {
		return l
	}
	base := idx &^ (leafPages - 1)
	i, _ := v.search(base)
	v.leaves = slices.Insert(v.leaves, i, newLeaf(base, int(min(leafPages, v.pages()-base))))
	v.last = i
	return &v.leaves[i]
}

// fit brings the table to a region of n pages: leaves wholly past the
// end are dropped, and the leaf the end falls in is re-sized to hold
// exactly what is left of the region (every other leaf is full-sized).
func (v *VMA) fit(n uint64) {
	i, _ := v.search(n)
	for j := i; j < len(v.leaves); j++ {
		v.present -= popcount(v.leaves[j].present)
		v.absent -= popcount(v.leaves[j].absent)
	}
	clear(v.leaves[i:])
	v.leaves = v.leaves[:i]
	if i == 0 {
		return
	}
	l := &v.leaves[i-1]
	if want := int(min(leafPages, n-l.base)); want != len(l.frames) {
		present, absent := l.resize(want)
		v.present -= present
		v.absent -= absent
	}
}

// Entry returns the entry of page idx; false when the page was never
// touched or idx lies past the region's end.
func (v *VMA) Entry(idx uint64) (PTE, bool) {
	l := v.leafAt(idx)
	if l == nil {
		return PTE{}, false
	}
	e := l.pte(idx - l.base)
	return e, e.Frame != nil || e.Absent
}

// Entries calls fn for every entry of the region, resident pages and
// placeholders alike, in index order. fn must not change the address
// space.
func (v *VMA) Entries(fn func(PTE)) {
	v.walk(func(l *leaf, w int) uint64 { return l.present[w] | l.absent[w] }, func(l *leaf, i uint64) { fn(l.pte(i)) })
}

// DirtyEntries calls fn for every entry with the dirty bit set, in index
// order. fn must not change the address space.
func (v *VMA) DirtyEntries(fn func(PTE)) {
	v.walk(func(l *leaf, w int) uint64 { return l.dirty[w] }, func(l *leaf, i uint64) { fn(l.pte(i)) })
}

// walk visits, leaf by leaf and word by word, the slots whose bit is set
// in the word pick selects.
func (v *VMA) walk(pick func(l *leaf, w int) uint64, fn func(l *leaf, i uint64)) {
	for i := range v.leaves {
		l := &v.leaves[i]
		for w := range l.present {
			for set := pick(l, w); set != 0; set &= set - 1 {
				fn(l, uint64(w*64+bits.TrailingZeros64(set)))
			}
		}
	}
}

// Install makes page the frame of page idx, clean: the restore path cuts
// the frames of the pages a round brings into existence from one slab
// and hands each to the table. idx must lie inside the region and name a
// page with no entry yet. page is a frame: a whole number of lines long,
// at least one and at most PageSize, the page's content up to there (the
// rest of the page is zero); the table keeps it, and lends it with no
// capacity past its end.
func (v *VMA) Install(idx uint64, page []byte) {
	l := v.leafFor(idx)
	i := idx - l.base
	w, b := bit(i)
	l.setFrame(i, page)
	l.present[w] |= b
	v.present++
}

// AddressSpace is an ordered set of non-overlapping VMAs, the analogue of
// the mm_struct VMA list the tracking mechanism of §V-A diffs against.
type AddressSpace struct {
	vmas    []*VMA // sorted by Start
	nextMap uint64 // bump allocator for anonymous mappings

	// chunks are the allocations the space's frames were cut from, in
	// the order drawn (Retire hands them to the page reserve); frames are
	// cut from the last one, whose first off bytes are handed out. cut
	// counts the bytes of frames cut so far, which sizes the next chunk.
	chunks [][]byte
	off    int
	cut    int

	// OnMissing observes every access that lands on an absent page (a
	// post-copy placeholder whose content is still on the migration
	// source). The access itself fails with ErrPageAbsent and the state
	// of the space is untouched; the hook is where the demand-pull
	// client hangs.
	OnMissing func(vmaStart, pageIndex uint64)
}

// NewAddressSpace creates an empty address space with mappings starting
// at a conventional base.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{nextMap: 0x4000_0000}
}

// VMAs returns the live region list in address order. Callers must not
// mutate it.
func (as *AddressSpace) VMAs() []*VMA { return as.vmas }

// Mmap maps length bytes at a chosen address and returns the region.
func (as *AddressSpace) Mmap(length uint64, perms string) *VMA {
	if length == 0 {
		length = PageSize
	}
	length = (length + PageSize - 1) / PageSize * PageSize
	v := &VMA{Start: as.nextMap, End: as.nextMap + length, Perms: perms}
	as.nextMap += length + PageSize // guard page gap
	as.vmas = append(as.vmas, v)
	slices.SortFunc(as.vmas, byStart)
	return v
}

// byStart orders regions by address (their starts are distinct).
func byStart(a, b *VMA) int { return cmp.Compare(a.Start, b.Start) }

// MmapFixed maps a region at a specific address (restart path).
func (as *AddressSpace) MmapFixed(start, end uint64, perms string) (*VMA, error) {
	if start%PageSize != 0 || end%PageSize != 0 || end <= start {
		return nil, fmt.Errorf("proc: bad fixed mapping [%#x,%#x)", start, end)
	}
	for _, v := range as.vmas {
		if start < v.End && v.Start < end {
			return nil, fmt.Errorf("proc: mapping [%#x,%#x) overlaps [%#x,%#x)", start, end, v.Start, v.End)
		}
	}
	v := &VMA{Start: start, End: end, Perms: perms}
	as.vmas = append(as.vmas, v)
	slices.SortFunc(as.vmas, byStart)
	if end+PageSize > as.nextMap {
		as.nextMap = end + PageSize
	}
	return v, nil
}

// Munmap removes the region starting at start.
func (as *AddressSpace) Munmap(start uint64) error {
	for i, v := range as.vmas {
		if v.Start == start {
			as.vmas = append(as.vmas[:i], as.vmas[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("proc: munmap of unmapped address %#x", start)
}

// Resize grows or shrinks a region in place (mremap-style modification;
// one of the three kinds of address-space change the tracking list must
// reflect). Like MmapFixed it refuses a region that would be empty or
// end below its start: newLen arrives in decoded deltas and directories.
func (as *AddressSpace) Resize(start, newLen uint64) error {
	newLen = (newLen + PageSize - 1) / PageSize * PageSize
	newEnd := start + newLen
	if newLen == 0 || newEnd <= start {
		return fmt.Errorf("proc: bad resize of %#x to %#x bytes", start, newLen)
	}
	for i, v := range as.vmas {
		if v.Start != start {
			continue
		}
		if i+1 < len(as.vmas) && newEnd > as.vmas[i+1].Start {
			return fmt.Errorf("proc: resize collides with next mapping")
		}
		v.End = newEnd
		v.fit(v.pages())
		if newEnd+PageSize > as.nextMap {
			as.nextMap = newEnd + PageSize // or the next Mmap lands inside the grown region
		}
		return nil
	}
	return fmt.Errorf("proc: resize of unmapped address %#x", start)
}

func (as *AddressSpace) findVMA(addr uint64) *VMA {
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].End > addr })
	if i < len(as.vmas) && as.vmas[i].Start <= addr {
		return as.vmas[i]
	}
	return nil
}

// region resolves a (region start, page index) pair that names a page
// from outside — a directory entry, a pulled page — and rejects a start
// that is no region's and an index at or past the region's end.
func (as *AddressSpace) region(what string, vmaStart, pageIndex uint64) (*VMA, error) {
	v := as.findVMA(vmaStart)
	if v == nil || v.Start != vmaStart {
		return nil, fmt.Errorf("proc: %s on unmapped region %#x", what, vmaStart)
	}
	if pageIndex >= v.pages() {
		return nil, fmt.Errorf("proc: %s of page %d in the %d-page region %#x", what, pageIndex, v.pages(), vmaStart)
	}
	return v, nil
}

// PageAt resolves addr to its region and page index, and to the frame
// resident there (nil when the page was never touched) — regrown to a
// full page first when it ends short of end, the byte of the page the
// caller is about to write up to (exclusive). It fails the way an access
// would: a segmentation fault outside every mapping, the post-copy fault
// (OnMissing fired) on an absent placeholder. The checkpoint restore
// path uses it to write arriving page content straight into place; it
// sets no dirty bit.
func (as *AddressSpace) PageAt(addr uint64, end int) (v *VMA, idx uint64, page []byte, err error) {
	v = as.findVMA(addr)
	if v == nil {
		return nil, 0, nil, fmt.Errorf("proc: segmentation fault writing %#x", addr)
	}
	idx = (addr - v.Start) / PageSize
	l := v.leafAt(idx)
	if l == nil {
		return v, idx, nil, nil
	}
	i := idx - l.base
	w, b := bit(i)
	if l.absent[w]&b != 0 {
		return v, idx, nil, as.missing(v, idx)
	}
	if l.present[w]&b == 0 {
		return v, idx, nil, nil
	}
	return v, idx, as.reach(l, i, end), nil
}

// ErrPageAbsent is the fault an access to a post-copy placeholder page
// raises: the content has not arrived from the migration source yet.
var ErrPageAbsent = fmt.Errorf("proc: page not resident (post-copy fault)")

// missing fires the demand-fault hook and returns the canonical fault.
func (as *AddressSpace) missing(v *VMA, idx uint64) error {
	if as.OnMissing != nil {
		as.OnMissing(v.Start, idx)
	}
	return ErrPageAbsent
}

// poisonStale is the stale-frame tripwire: while set, MarkAbsent
// overwrites the frame it keeps with 0xDB, so whoever reads a
// placeholder's frame instead of faulting sees garbage at once. Only
// test packages set it, from their export_test.go.
var poisonStale bool

// PoisonStaleFrames turns the tripwire on for the rest of the process.
// It is for a test package's init.
func PoisonStaleFrames() { poisonStale = true }

// newFrame cuts one zeroed frame of n bytes, a whole number of lines,
// from the space's chunk. A new chunk is sized in bytes from what the
// space has cut so far — one byte for every eight, at least n and at
// most maxChunkFrames pages — rounded up to its reserve class, so no
// space holds more than about a quarter of what it has cut, or 32 KiB
// less a line, in frames it has not handed out.
func (as *AddressSpace) newFrame(n int) []byte {
	return as.cutChunk(n, max(min(as.cut/8, maxChunkFrames*PageSize), n))
}

// Slab returns n zeroed bytes the space owns, for the caller to cut
// into frames and Install: the restore path backs the pages a round
// brings into existence with one slab. It comes from the space's chunk
// when that has n bytes left, else from one new chunk of the class that
// holds n, drawn from the page reserve: a miss allocates one class
// size, a hit nothing (past the largest class, exactly n bytes the
// reserve does not keep). The space hands the slab to the reserve when
// it is retired, with its other chunks.
func (as *AddressSpace) Slab(n int) []byte {
	if n == 0 {
		return nil
	}
	return as.cutChunk(n, n)
}

// cutChunk cuts n zeroed bytes from the space's chunk, with no capacity
// past them. A chunk too short for them is left with less than n bytes
// unused, and a new one that holds at least size bytes (size >= n) is
// taken from the reserve.
func (as *AddressSpace) cutChunk(n, size int) []byte {
	last := len(as.chunks) - 1
	if last < 0 || len(as.chunks[last])-as.off < n {
		as.chunks = append(as.chunks, takeChunk(size))
		last, as.off = last+1, 0
	}
	f := as.chunks[last][as.off : as.off+n : as.off+n]
	as.off += n
	as.cut += n
	return f
}

// reach returns the frame of slot i of l, made to hold at least end
// bytes of its page: a slot with no frame gets one cut to the lines end
// reaches; a frame that ends short of end is regrown, once and for all,
// to a full page that carries its content over.
func (as *AddressSpace) reach(l *leaf, i uint64, end int) []byte {
	f := l.frame(i)
	if f != nil && len(f) >= end {
		return f
	}
	n := FrameLen(end)
	if f != nil {
		n = PageSize
	}
	g := as.newFrame(n)
	copy(g, f)
	l.setFrame(i, g)
	return g
}

// writable resolves page idx of v for a store reaching byte end of the
// page: its frame, faulted in on first touch or regrown when the store
// passes its end, with the dirty bit set. A placeholder faults instead.
func (as *AddressSpace) writable(v *VMA, idx uint64, end int) ([]byte, error) {
	l := v.leafFor(idx)
	i := idx - l.base
	w, b := bit(i)
	if l.absent[w]&b != 0 {
		return nil, as.missing(v, idx)
	}
	if l.present[w]&b == 0 {
		l.present[w] |= b
		v.present++
	}
	l.dirty[w] |= b
	return as.reach(l, i, end), nil
}

// Write stores data at addr, faulting pages in and setting dirty bits.
// Writes that land on an absent page fault (fire OnMissing, return
// ErrPageAbsent) without storing anything.
func (as *AddressSpace) Write(addr uint64, data []byte) error {
	for len(data) > 0 {
		v := as.findVMA(addr)
		if v == nil {
			return fmt.Errorf("proc: segmentation fault writing %#x", addr)
		}
		off := int(addr % PageSize)
		f, err := as.writable(v, (addr-v.Start)/PageSize, min(off+len(data), PageSize))
		if err != nil {
			return err
		}
		n := copy(f[off:], data)
		data = data[n:]
		addr += uint64(n)
	}
	return nil
}

// Read copies length bytes starting at addr: a page's frame, then the
// zeros past its end, and zeros for a page never touched. Reads that
// land on an absent page fault like writes do.
func (as *AddressSpace) Read(addr uint64, length int) ([]byte, error) {
	out := make([]byte, length)
	for pos := 0; pos < length; {
		v := as.findVMA(addr)
		if v == nil {
			return nil, fmt.Errorf("proc: segmentation fault reading %#x", addr)
		}
		off := int(addr % PageSize)
		n := min(PageSize-off, length-pos)
		idx := (addr - v.Start) / PageSize
		if e, ok := v.Entry(idx); ok {
			if e.Absent {
				return nil, as.missing(v, idx)
			}
			if off < len(e.Frame) {
				copy(out[pos:pos+n], e.Frame[off:])
			}
		}
		pos += n
		addr += uint64(n)
	}
	return out, nil
}

// Touch dirties a single page (the workload generator's write primitive).
func (as *AddressSpace) Touch(addr uint64) error {
	v := as.findVMA(addr)
	if v == nil {
		return fmt.Errorf("proc: segmentation fault touching %#x", addr)
	}
	off := int(addr % PageSize)
	f, err := as.writable(v, (addr-v.Start)/PageSize, off+1)
	if err != nil {
		return err
	}
	f[off]++
	return nil
}

// MarkAbsent installs a post-copy placeholder: the page is known to
// exist (it was resident on the source at freeze time) but its content
// has not been shipped. Any access faults until FillPage arrives. A
// frame the page held (hybrid's first-round copy, stale now) stays in
// its slot, out of every reader's sight, for FillPage to write the
// arriving content over.
func (as *AddressSpace) MarkAbsent(vmaStart, pageIndex uint64) error {
	v, err := as.region("mark-absent", vmaStart, pageIndex)
	if err != nil {
		return err
	}
	l := v.leafFor(pageIndex)
	i := pageIndex - l.base
	w, b := bit(i)
	if l.present[w]&b != 0 {
		if poisonStale {
			f := l.frame(i)
			for j := range f {
				f[j] = 0xDB
			}
		}
		l.present[w] &^= b
		l.dirty[w] &^= b
		v.present--
	}
	if l.absent[w]&b == 0 {
		l.absent[w] |= b
		v.absent++
	}
	return nil
}

// ErrFillSize rejects a fill that is not exactly one page: arriving
// content is decoded from the wire, and a short or over-long page is a
// malformed reply, not a page to pad or truncate.
var ErrFillSize = fmt.Errorf("proc: fill is not one %d-byte page", PageSize)

// FillPage delivers a pulled (or pushed) page's content, clearing the
// absent mark. data must be exactly one page. Its frame holds the page up
// to its last non-zero line: it is written over the stale frame the
// placeholder kept when that frame is long enough, into a frame cut to
// those lines when it kept none, and into the stale frame regrown to a
// full page otherwise. The fill does not set the dirty bit: arriving
// content is clean by definition (it is the source's authoritative
// copy). Filling a page that is not absent is rejected so the
// exactly-once shipping property is checkable at the memory layer.
func (as *AddressSpace) FillPage(vmaStart, pageIndex uint64, data []byte) error {
	v, err := as.region("fill", vmaStart, pageIndex)
	if err != nil {
		return err
	}
	if len(data) != PageSize {
		return fmt.Errorf("%w: %d bytes for page %#x+%d", ErrFillSize, len(data), vmaStart, pageIndex)
	}
	l := v.leafAt(pageIndex)
	i := pageIndex % leafPages
	w, b := bit(i)
	if l == nil || l.absent[w]&b == 0 {
		return fmt.Errorf("proc: duplicate fill of resident page %#x+%d", vmaStart, pageIndex)
	}
	copy(as.reach(l, i, contentEnd(data)), data)
	l.absent[w] &^= b
	l.present[w] |= b
	v.absent--
	v.present++
	return nil
}

// contentEnd returns one past the last non-zero byte of data, 0 when
// data is all zeros.
func contentEnd(data []byte) int {
	n := len(data)
	for ; n >= 8 && binary.LittleEndian.Uint64(data[n-8:]) == 0; n -= 8 {
	}
	for ; n > 0 && data[n-1] == 0; n-- {
	}
	return n
}

// AbsentPages lists the remaining placeholders in canonical (VMA,
// index) order — the prefetch sweep's work list.
func (as *AddressSpace) AbsentPages() []DirtyRef {
	return as.refs(as.AbsentCount(), func(l *leaf, w int) uint64 { return l.absent[w] })
}

// refs lists the n pages whose bit is set in the word pick selects, in
// canonical (VMA, index) order.
func (as *AddressSpace) refs(n int, pick func(l *leaf, w int) uint64) []DirtyRef {
	out := make([]DirtyRef, 0, n)
	for _, v := range as.vmas {
		v.walk(pick, func(l *leaf, i uint64) { out = append(out, DirtyRef{VMA: v, PageIndex: l.base + i}) })
	}
	return out
}

// AbsentCount counts the remaining placeholders.
func (as *AddressSpace) AbsentCount() int {
	n := 0
	for _, v := range as.vmas {
		n += v.absent
	}
	return n
}

// DirtyPages returns (vmaStart, pageIndex) pairs of every dirty page.
func (as *AddressSpace) DirtyPages() []DirtyRef {
	n := 0
	for _, v := range as.vmas {
		n += v.DirtyCount()
	}
	return as.refs(n, func(l *leaf, w int) uint64 { return l.dirty[w] })
}

// DirtyRef names one dirty page.
type DirtyRef struct {
	VMA       *VMA
	PageIndex uint64
}

// Addr returns the page's virtual address.
func (d DirtyRef) Addr() uint64 { return d.VMA.Start + d.PageIndex*PageSize }

// ClearDirty resets all dirty bits (done after each precopy transfer
// round, like clearing PTE dirty bits).
func (as *AddressSpace) ClearDirty() {
	for _, v := range as.vmas {
		for i := range v.leaves {
			clear(v.leaves[i].dirty)
		}
	}
}

// ResidentBytes sums materialized page bytes across all regions.
func (as *AddressSpace) ResidentBytes() uint64 {
	var n uint64
	for _, v := range as.vmas {
		n += uint64(v.Resident()) * PageSize
	}
	return n
}

// MappedBytes sums region sizes.
func (as *AddressSpace) MappedBytes() uint64 {
	var n uint64
	for _, v := range as.vmas {
		n += v.Len()
	}
	return n
}
