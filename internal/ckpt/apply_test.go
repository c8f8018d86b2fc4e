package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dvemig/internal/proc"
	"dvemig/internal/wire/wiretest"
)

// The in-place apply is tested against the materialising pair it
// replaced on the engine's hot path: ApplyEncodedDelta(as, payload) must
// leave exactly the address space ApplyDelta(as, DecodeMemDelta(payload))
// leaves, and fail exactly when the pair fails.

// refApply is the reference: decode everything, then apply.
func refApply(as *proc.AddressSpace, payload []byte) error {
	d, err := DecodeMemDelta(payload)
	if err != nil {
		return err
	}
	return ApplyDelta(as, d)
}

// cloneSpace deep-copies geometry, page content and page flags: the
// clean pages are written first and their dirty bits cleared, then the
// dirty pages, then the placeholders.
func cloneSpace(t testing.TB, as *proc.AddressSpace) *proc.AddressSpace {
	t.Helper()
	out := proc.NewAddressSpace()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range as.VMAs() {
		_, err := out.MmapFixed(v.Start, v.End, v.Perms)
		must(err)
	}
	for _, dirty := range []bool{false, true} {
		for _, v := range as.VMAs() {
			v.Entries(func(e proc.PTE) {
				if !e.Absent && e.Dirty == dirty {
					must(out.Write(v.Start+e.Index*proc.PageSize, e.Frame))
				}
			})
		}
		if !dirty {
			out.ClearDirty()
		}
	}
	for _, r := range as.AbsentPages() {
		must(out.MarkAbsent(r.VMA.Start, r.PageIndex))
	}
	return out
}

// requireSameSpace compares two spaces region by region and page by
// page — geometry, the resident set, logical content (a frame and the
// zeros past its end), dirty and absent bits — and by ResidentBytes,
// and checks every frame of got against the frame rule.
func requireSameSpace(t testing.TB, what string, got, want *proc.AddressSpace) {
	t.Helper()
	if got.ResidentBytes() != want.ResidentBytes() {
		t.Fatalf("%s: %d resident bytes, want %d", what, got.ResidentBytes(), want.ResidentBytes())
	}
	gv, wv := got.VMAs(), want.VMAs()
	if len(gv) != len(wv) {
		t.Fatalf("%s: %d regions, want %d", what, len(gv), len(wv))
	}
	for i, w := range wv {
		g := gv[i]
		if g.Start != w.Start || g.End != w.End || g.Perms != w.Perms {
			t.Fatalf("%s: region %d is [%#x,%#x) %q, want [%#x,%#x) %q", what, i, g.Start, g.End, g.Perms, w.Start, w.End, w.Perms)
		}
		if g.Resident() != w.Resident() {
			t.Fatalf("%s: region %#x has %d resident pages, want %d", what, w.Start, g.Resident(), w.Resident())
		}
		w.Entries(func(wp proc.PTE) {
			idx := wp.Index
			gp, ok := g.Entry(idx)
			if !ok {
				t.Fatalf("%s: page %#x+%d not resident", what, w.Start, idx)
			}
			if !bytes.Equal(pageContent(gp), pageContent(wp)) || gp.Dirty != wp.Dirty || gp.Absent != wp.Absent {
				t.Fatalf("%s: page %#x+%d differs (dirty %v/%v, absent %v/%v)", what, w.Start, idx, gp.Dirty, wp.Dirty, gp.Absent, wp.Absent)
			}
			if len(gp.Frame) != cap(gp.Frame) {
				t.Fatalf("%s: page %#x+%d has spare capacity (%d of %d): an append could reach its neighbour",
					what, w.Start, idx, len(gp.Frame), cap(gp.Frame))
			}
			if n := len(gp.Frame); !gp.Absent && (n == 0 || n > proc.PageSize || n%proc.LineSize != 0) {
				t.Fatalf("%s: page %#x+%d has a frame of %d bytes, not a whole number of lines up to a page", what, w.Start, idx, n)
			}
		})
	}
}

// pageContent returns the page an entry holds: its frame, then zeros to
// the page's end; nil for a placeholder.
func pageContent(e proc.PTE) []byte {
	if e.Absent {
		return nil
	}
	return append(bytes.Clone(e.Frame), make([]byte, proc.PageSize-len(e.Frame))...)
}

// randomPage draws page content of one of the shapes the codec tags
// differently: zero, sparse, dense (raw), or an odd length.
func randomPage(rnd *rand.Rand) []byte {
	switch rnd.Intn(7) {
	case 6:
		return firstLinePage(rnd)
	case 0:
		return make([]byte, proc.PageSize)
	case 1, 2:
		b := make([]byte, proc.PageSize)
		for i := rnd.Intn(6); i >= 0; i-- {
			b[rnd.Intn(len(b))] = byte(1 + rnd.Intn(255))
		}
		return b
	case 3, 4:
		b := make([]byte, proc.PageSize)
		for i := range b {
			b[i] = byte(1 + rnd.Intn(255))
		}
		return b
	default:
		// Not a page image: short, empty, or spilling into the next page.
		b := make([]byte, []int{0, 1, 100, proc.PageSize - 1, proc.PageSize + 1, 2 * proc.PageSize}[rnd.Intn(6)])
		for i := range b {
			b[i] = byte(rnd.Intn(3)) // zeros included, so sparse odd-length records occur
		}
		return b
	}
}

// firstLinePage is a sparse page whose content ends inside its first
// line: its frame on the destination is one line long.
func firstLinePage(rnd *rand.Rand) []byte {
	b := make([]byte, proc.PageSize)
	b[rnd.Intn(proc.LineSize)] = byte(1 + rnd.Intn(255))
	return b
}

// grownPage is p with content added at a byte past its first line: a
// record of it reaches past a one-line frame.
func grownPage(rnd *rand.Rand, p []byte) []byte {
	b := bytes.Clone(p)
	b[proc.LineSize+rnd.Intn(proc.PageSize-proc.LineSize)] = byte(1 + rnd.Intn(255))
	return b
}

// TestApplyEncodedMatchesDecodeThenApply drives both paths through
// randomised rounds: regions appear, resize and vanish; pages arrive
// fresh, are rewritten (a zero record over a page that held data must
// read back zero), arrive twice in one delta, and arrive with odd
// lengths at odd addresses. Some pages arrive as content inside their
// first line and, in a later round or later in the same one, grow past
// it, so a record lands on a destination frame shorter than it reaches.
func TestApplyEncodedMatchesDecodeThenApply(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		got, want := proc.NewAddressSpace(), proc.NewAddressSpace()
		type region struct{ start, pages uint64 }
		var regions []region
		var short []PageImage // pages last sent as first-line content
		next := uint64(0x10000)
		for round := 1; round <= 8; round++ {
			d := &MemDelta{Round: round}
			if len(regions) > 1 && rnd.Intn(3) == 0 {
				i := rnd.Intn(len(regions))
				d.Removed = append(d.Removed, regions[i].start)
				regions = append(regions[:i], regions[i+1:]...)
			}
			for i := rnd.Intn(3); i > 0 || len(regions) == 0; i-- {
				r := region{start: next, pages: uint64(2 + rnd.Intn(6))}
				next += (r.pages + 8) * proc.PageSize // room to grow
				d.NewVMAs = append(d.NewVMAs, VMARange{Start: r.start, End: r.start + r.pages*proc.PageSize, Perms: "rw-"})
				regions = append(regions, r)
			}
			if rnd.Intn(2) == 0 {
				r := &regions[rnd.Intn(len(regions))]
				r.pages = uint64(1 + rnd.Intn(9))
				end := r.start + r.pages*proc.PageSize
				if len(d.NewVMAs) == 0 || d.NewVMAs[len(d.NewVMAs)-1].Start != r.start {
					d.Resized = append(d.Resized, VMARange{Start: r.start, End: end, Perms: "rw-"})
				} else {
					d.NewVMAs[len(d.NewVMAs)-1].End = end
				}
			}
			for i := rnd.Intn(12); i > 0; i-- {
				r := regions[rnd.Intn(len(regions))]
				pg := PageImage{VMAStart: r.start, Index: uint64(rnd.Intn(int(r.pages))), Data: randomPage(rnd)}
				if rnd.Intn(16) == 0 {
					pg.VMAStart += 8 // an unaligned address straddles two pages
				}
				d.Pages = append(d.Pages, pg)
				if rnd.Intn(4) == 0 { // the same page again, with other content
					d.Pages = append(d.Pages, PageImage{VMAStart: pg.VMAStart, Index: pg.Index, Data: randomPage(rnd)})
				}
				if pg.VMAStart%proc.PageSize == 0 && rnd.Intn(3) == 0 { // a short page, grown later
					pg.Data = firstLinePage(rnd)
					d.Pages = append(d.Pages, pg)
					short = append(short, pg)
				}
			}
			short = slices.DeleteFunc(short, func(pg PageImage) bool { // still inside its region?
				return !slices.ContainsFunc(regions, func(r region) bool { return r.start == pg.VMAStart && pg.Index < r.pages })
			})
			for len(short) > 0 && rnd.Intn(3) != 0 { // a short page grows past its first line
				i := rnd.Intn(len(short))
				pg := short[i]
				short = append(short[:i], short[i+1:]...)
				pg.Data = grownPage(rnd, pg.Data)
				d.Pages = append(d.Pages, pg)
			}
			payload := d.Encode()
			errWant := refApply(want, payload)
			errGot := ApplyEncodedDelta(got, payload)
			if (errGot == nil) != (errWant == nil) {
				t.Fatalf("seed %d round %d: in-place error %v, reference error %v", seed, round, errGot, errWant)
			}
			if errWant != nil {
				break // a write past a shrunken region: both refused, the spaces are now undefined
			}
			requireSameSpace(t, "in-place vs reference", got, want)
		}
	}
}

// TestApplyEncodedZeroOverDirtyPage pins the one case a decoder that
// trusted "fresh pages are zero" would get wrong: a zero record and a
// sparse record landing on pages that already hold other data.
func TestApplyEncodedZeroOverDirtyPage(t *testing.T) {
	as := proc.NewAddressSpace()
	const base = 0x20000
	full := bytes.Repeat([]byte{0xCC}, proc.PageSize)
	first := &MemDelta{Round: 1,
		NewVMAs: []VMARange{{Start: base, End: base + 2*proc.PageSize, Perms: "rw-"}},
		Pages:   []PageImage{{VMAStart: base, Index: 0, Data: full}, {VMAStart: base, Index: 1, Data: full}}}
	if err := ApplyEncodedDelta(as, first.Encode()); err != nil {
		t.Fatal(err)
	}
	sparse := make([]byte, proc.PageSize)
	sparse[77] = 9
	second := &MemDelta{Round: 2, Pages: []PageImage{
		{VMAStart: base, Index: 0, Data: make([]byte, proc.PageSize)},
		{VMAStart: base, Index: 1, Data: sparse}}}
	if err := ApplyEncodedDelta(as, second.Encode()); err != nil {
		t.Fatal(err)
	}
	for idx, want := range [][]byte{make([]byte, proc.PageSize), sparse} {
		if got, _ := as.Read(base+uint64(idx)*proc.PageSize, proc.PageSize); !bytes.Equal(got, want) {
			t.Fatalf("page %d kept bytes of its previous content", idx)
		}
	}
}

// hostileFixture returns an address space and a small valid delta over
// it that exercises every record kind: geometry of all three sorts, and zero, sparse, raw
// and odd-length pages landing on resident and on fresh pages.
func hostileFixture(t testing.TB) (base *proc.AddressSpace, payload []byte) {
	t.Helper()
	base = proc.NewAddressSpace()
	for _, r := range []VMARange{{Start: 0x10000, End: 0x14000, Perms: "rw-"}, {Start: 0x20000, End: 0x22000, Perms: "r-x"}, {Start: 0x30000, End: 0x31000, Perms: "rw-"}} {
		if _, err := base.MmapFixed(r.Start, r.End, r.Perms); err != nil {
			t.Fatal(err)
		}
	}
	for _, addr := range []uint64{0x10000, 0x11000, 0x20000} {
		if err := base.Write(addr, bytes.Repeat([]byte{0x11}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	sparse := make([]byte, proc.PageSize)
	sparse[5], sparse[3000] = 1, 2
	dense := bytes.Repeat([]byte{0xD7}, 48) // kept short so the byte-by-byte sweeps stay cheap
	d := &MemDelta{Round: 3,
		NewVMAs: []VMARange{{Start: 0x40000, End: 0x42000, Perms: "rw-"}},
		Removed: []uint64{0x30000},
		Resized: []VMARange{{Start: 0x20000, End: 0x23000, Perms: "r-x"}},
		Pages: []PageImage{
			{VMAStart: 0x10000, Index: 0, Data: make([]byte, proc.PageSize)}, // zero over resident
			{VMAStart: 0x10000, Index: 1, Data: sparse},                      // sparse over resident
			{VMAStart: 0x10000, Index: 2, Data: sparse},                      // sparse, fresh
			{VMAStart: 0x40000, Index: 1, Data: make([]byte, proc.PageSize)}, // zero, fresh, new region
			{VMAStart: 0x20000, Index: 2, Data: dense},                       // short raw record, grown region
		}}
	return base, d.Encode()
}

// TestApplyEncodedRejectsDamagedPayloads: every truncation of a valid
// payload is an error that leaves the space exactly as it was; every
// single-byte corruption behaves exactly like the reference pair (same
// verdict, same resulting space) and, when the damage makes the payload
// unparseable, likewise leaves the space untouched. Nothing panics.
func TestApplyEncodedRejectsDamagedPayloads(t *testing.T) {
	base, payload := hostileFixture(t)
	if err := ApplyEncodedDelta(cloneSpace(t, base), payload); err != nil {
		t.Fatalf("the undamaged payload must apply: %v", err)
	}
	for n := 0; n < len(payload); n++ {
		as := cloneSpace(t, base)
		if err := ApplyEncodedDelta(as, payload[:n]); err == nil {
			t.Fatalf("payload truncated to %d of %d bytes was accepted", n, len(payload))
		}
		requireSameSpace(t, "after a truncated payload", as, base)
	}
	for i := range payload {
		for _, flip := range []byte{0x01, 0x80, 0xFF} {
			bad := append([]byte(nil), payload...)
			bad[i] ^= flip
			got, want := cloneSpace(t, base), cloneSpace(t, base)
			errGot, errWant := ApplyEncodedDelta(got, bad), refApply(want, bad)
			if (errGot == nil) != (errWant == nil) {
				t.Fatalf("byte %d ^ %#x: in-place error %v, reference error %v", i, flip, errGot, errWant)
			}
			if _, derr := DecodeMemDelta(bad); derr != nil {
				requireSameSpace(t, "after an unparseable payload", got, base)
			} else if errWant == nil {
				requireSameSpace(t, "after a damaged but well-formed payload", got, want)
			}
		}
	}
}

// TestApplyEncodedBoundsHostileClaims: length and count fields that
// promise far more than the payload holds are refused before anything
// is allocated on their say-so.
func TestApplyEncodedBoundsHostileClaims(t *testing.T) {
	be := binary.BigEndian
	// hdr is a delta of one new region whose page count is npages, then
	// the first page entry's address, tag and claimed length.
	hdr := func(npages uint32, tag byte, n uint32) []byte {
		b := be.AppendUint32(nil, 1) // round
		b = be.AppendUint32(b, 1)    // one new region
		b = be.AppendUint64(b, 0x10000)
		b = be.AppendUint64(b, 0x10000+4*proc.PageSize)
		b = append(be.AppendUint32(b, 3), "rw-"...)
		b = be.AppendUint32(b, 0)
		b = be.AppendUint32(b, 0)
		b = be.AppendUint32(b, npages)
		b = be.AppendUint64(b, 0x10000)
		b = be.AppendUint64(b, 0)
		return be.AppendUint32(append(b, tag), n)
	}
	u16s := func(b []byte, vs ...uint16) []byte {
		for _, v := range vs {
			b = be.AppendUint16(b, v)
		}
		return b
	}
	cases := map[string][]byte{
		"page count beyond the payload": hdr(1<<30, pageEncZero, 0)[:43],
		"zero page of 2 GiB":            hdr(1, pageEncZero, 1<<31),
		"sparse page of 2 MiB":          u16s(hdr(1, pageEncSparse, 2<<20), 0),
		"raw length beyond the payload": append(hdr(1, pageEncRaw, proc.PageSize), 1),
		// one segment: offset, length, bytes
		"segment beyond the page":          append(u16s(hdr(1, pageEncSparse, proc.PageSize), 1, proc.PageSize-1, 2), 1, 2),
		"segment bytes beyond the payload": append(u16s(hdr(1, pageEncSparse, proc.PageSize), 1, 0, 100), 1),
		"unknown tag":                      hdr(1, 9, 0),
	}
	for name, payload := range cases {
		as := proc.NewAddressSpace()
		if err := ApplyEncodedDelta(as, payload); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if len(as.VMAs()) != 0 {
			t.Errorf("%s: the space was touched before the payload was validated", name)
		}
	}
}

// TestLentPagesAndEncodedBytesLifetimes pins both ends of the page-byte
// contract. Source: Delta lends live pages, so the bytes are those of
// the page until it is next written — and what EncodeInto produced from
// them is a copy that later writes cannot reach. Destination: applied
// pages own their bytes, so the payload buffer (the engine's chunk
// scratch, reused for the next stream) can be overwritten at once.
func TestLentPagesAndEncodedBytesLifetimes(t *testing.T) {
	src := proc.NewAddressSpace()
	heap := src.Mmap(4*proc.PageSize, "rw-")
	dense := bytes.Repeat([]byte{0xAB}, proc.PageSize)
	if err := src.Write(heap.Start, dense); err != nil { // ships raw: the record is the page's bytes verbatim
		t.Fatal(err)
	}
	if err := src.Write(heap.Start+proc.PageSize, []byte{1, 2, 3}); err != nil { // ships sparse
		t.Fatal(err)
	}
	d := NewTracker().Delta(src)
	if live, _ := heap.Entry(0); len(d.Pages) != 2 || &d.Pages[0].Data[0] != &live.Frame[0] {
		t.Fatal("Delta is documented to lend the live page, not copy it")
	}
	enc := d.EncodeInto(nil)
	snapshot := append([]byte(nil), enc...)
	if err := src.Write(heap.Start, bytes.Repeat([]byte{0x77}, 2*proc.PageSize)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, snapshot) {
		t.Fatal("encoded bytes changed when the source pages were written afterwards")
	}

	dst := proc.NewAddressSpace()
	if err := ApplyEncodedDelta(dst, enc); err != nil {
		t.Fatal(err)
	}
	// A second round rewrites the now-resident dense page in place.
	rewrite := &MemDelta{Round: 2, Pages: []PageImage{{VMAStart: heap.Start, Index: 0, Data: bytes.Repeat([]byte{0xEF}, proc.PageSize)}}}
	enc2 := rewrite.Encode()
	if err := ApplyEncodedDelta(dst, enc2); err != nil {
		t.Fatal(err)
	}
	want := cloneSpace(t, dst)
	for _, buf := range [][]byte{enc, enc2} {
		for i := range buf {
			buf[i] = 0x5C
		}
	}
	requireSameSpace(t, "after the payload buffers were overwritten", dst, want)
	if got, _ := dst.Read(heap.Start, 1); got[0] != 0xEF {
		t.Fatalf("rewritten page reads %#x", got[0])
	}
}

// FuzzApplyEncodedDelta: on arbitrary bytes the in-place apply never
// panics, agrees with the reference pair on the verdict and on the
// resulting space, and touches nothing when the payload does not parse.
func FuzzApplyEncodedDelta(f *testing.F) {
	_, valid := hostileFixture(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add((&MemDelta{Round: 1}).Encode())
	for _, payload := range hostileResizes() {
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		base, _ := hostileFixture(t)
		got, want := cloneSpace(t, base), cloneSpace(t, base)
		errGot, errWant := ApplyEncodedDelta(got, payload), refApply(want, payload)
		if (errGot == nil) != (errWant == nil) {
			t.Fatalf("in-place error %v, reference error %v", errGot, errWant)
		}
		if _, derr := DecodeMemDelta(payload); derr != nil {
			requireSameSpace(t, "after an unparseable payload", got, base)
		} else if errWant == nil {
			requireSameSpace(t, "in-place vs reference", got, want)
		}
	})
}

// hostileResizes are deltas whose Resized record ends at or below its
// start. applyGeometry hands Resize End-Start, which wraps: before the
// check in proc.Resize the first left [0x10000,0x8000) — an inverted,
// still "resident" region of 2⁶⁴-0x8000 bytes — and the second an empty
// one.
func hostileResizes() [][]byte {
	return [][]byte{
		(&MemDelta{Round: 2, Resized: []VMARange{{Start: 0x10000, End: 0x8000, Perms: "rw-"}}}).Encode(),
		(&MemDelta{Round: 2, Resized: []VMARange{{Start: 0x10000, End: 0x10000, Perms: "rw-"}}}).Encode(),
	}
}

func TestApplyRejectsInvertedAndEmptyResize(t *testing.T) {
	base, _ := hostileFixture(t)
	for i, payload := range hostileResizes() {
		for what, apply := range map[string]func(*proc.AddressSpace, []byte) error{"in place": ApplyEncodedDelta, "reference": refApply} {
			as := cloneSpace(t, base)
			if err := apply(as, payload); err == nil {
				v := as.VMAs()[0]
				t.Errorf("payload %d, %s: accepted, region is now [%#x,%#x)", i, what, v.Start, v.End)
			}
			requireSameSpace(t, "after a refused resize", as, base)
		}
	}
}

// TestPageDirRejectsIndexPastRegion: a directory entry naming a page at
// or past its region's end is refused, whichever list it is on, and
// ExtractPage answers "not resident" for such a coordinate. Before the
// bounds check MarkAbsent planted a placeholder no access could fault
// in, and the prefetch sweep waited on it forever.
func TestPageDirRejectsIndexPastRegion(t *testing.T) {
	base, _ := hostileFixture(t) // [0x10000,0x14000) is 4 pages, 0 and 1 resident
	geometry := BuildPageDir(base, nil).VMAs
	for _, idx := range []uint64{4, 5, 512, 1 << 40, ^uint64(0)} {
		c := PageCoord{VMAStart: 0x10000, Index: idx}
		if data, ok := ExtractPage(base, c); ok {
			t.Errorf("ExtractPage(%d) of a 4-page region lent %d bytes", idx, len(data))
		}
		for what, dir := range map[string]*PageDir{
			"absent":  {VMAs: geometry, Absent: []PageCoord{c}},
			"present": {VMAs: geometry, Present: []PageCoord{c}},
		} {
			as := cloneSpace(t, base)
			if err := ApplyPageDir(as, dir); err == nil {
				t.Errorf("directory with %s page %d of a 4-page region accepted (%d placeholders)", what, idx, as.AbsentCount())
			}
			requireSameSpace(t, "after a refused directory", as, base)
		}
	}
	// A count that promises more coordinates than the payload could hold
	// is refused without allocating on its say-so.
	payload := binary.BigEndian.AppendUint32(make([]byte, 4), 1<<24)
	if _, err := DecodePageDir(payload); err == nil {
		t.Fatal("a directory of 2^24 coordinates in 8 bytes decoded")
	}
	wiretest.CheckAllocBound(t, "refusing it", len(payload), pageDirAllocK, pageDirAllocSlack, func() { _, _ = DecodePageDir(payload) })
	for i, args := range wiretest.Corpus(t, "FuzzApplyPageDir") {
		b := args[0].([]byte)
		wiretest.CheckAllocBound(t, fmt.Sprintf("FuzzApplyPageDir entry %d", i), len(b), pageDirAllocK, pageDirAllocSlack, func() { _, _ = DecodePageDir(b) })
	}
}

// pageDirAllocK bounds what decoding a page directory allocates per input
// byte: each region and coordinate decodes to no more than its encoding
// takes, with append's slack behind it. pageDirAllocSlack covers a short
// input's fixed cost and the error's text, as memDeltaAllocSlack does.
const (
	pageDirAllocK     = 4
	pageDirAllocSlack = 64 << 10
)

// FuzzApplyPageDir: whatever decodes is applied onto a small space, and
// error or not, the space stays sound — regions ordered and non-empty,
// every entry inside its region, every placeholder counted and
// reachable by the access that would fault it in.
func FuzzApplyPageDir(f *testing.F) {
	base, _ := hostileFixture(f)
	valid := BuildPageDir(base, func(_ *proc.VMA, e proc.PTE) bool { return e.Index == 0 })
	f.Add(valid.Encode())
	f.Add(valid.Encode()[:20])
	f.Add((&PageDir{VMAs: valid.VMAs, Absent: []PageCoord{{VMAStart: 0x10000, Index: 1 << 40}}}).Encode())
	f.Add((&PageDir{VMAs: []VMARange{{Start: 0x10000, End: 0x8000, Perms: "rw-"}}}).Encode())
	f.Add((&PageDir{VMAs: []VMARange{{Start: 0x1000, End: 1 << 46, Perms: "rw-"}}, Absent: []PageCoord{{VMAStart: 0x1000, Index: 1<<34 - 2}}}).Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		dir, err := DecodePageDir(data)
		if err != nil {
			return
		}
		as := cloneSpace(t, base)
		applyErr := ApplyPageDir(as, dir)
		placeholders, end := 0, uint64(0)
		for _, v := range as.VMAs() {
			if v.Start < end || v.End <= v.Start {
				t.Fatalf("region [%#x,%#x) after one ending at %#x", v.Start, v.End, end)
			}
			end = v.End
			v.Entries(func(e proc.PTE) {
				if e.Index >= v.Len()/proc.PageSize {
					t.Fatalf("region [%#x,%#x) holds an entry for page %d", v.Start, v.End, e.Index)
				}
				if e.Absent {
					placeholders++
				}
			})
		}
		if as.AbsentCount() != placeholders || len(as.AbsentPages()) != placeholders {
			t.Fatalf("%d placeholders in the tables, AbsentCount %d, AbsentPages %d", placeholders, as.AbsentCount(), len(as.AbsentPages()))
		}
		for _, r := range as.AbsentPages() {
			if err := as.Touch(r.Addr()); !errors.Is(err, proc.ErrPageAbsent) {
				t.Fatalf("placeholder %#x+%d cannot be faulted in: touching it returned %v", r.VMA.Start, r.PageIndex, err)
			}
		}
		if applyErr != nil {
			return
		}
		for _, c := range dir.Absent {
			if _, ok := ExtractPage(as, c); ok {
				t.Fatalf("page %#x+%d is listed absent and still extractable", c.VMAStart, c.Index)
			}
		}
	})
}

// TestApplyDeltaClearsLentPageTail: a tracker's delta lends frames
// shorter than their pages (PageLen), and ApplyDelta must leave the
// destination page equal to the whole source page — its frame, then
// zeros — even where the destination's frame held other bytes past the
// source frame's end.
func TestApplyDeltaClearsLentPageTail(t *testing.T) {
	src, dst := proc.NewAddressSpace(), proc.NewAddressSpace()
	heap := src.Mmap(2*proc.PageSize, "rw-")
	if _, err := dst.MmapFixed(heap.Start, heap.End, heap.Perms); err != nil {
		t.Fatal(err)
	}
	if err := dst.Write(heap.Start, bytes.Repeat([]byte{0xCC}, proc.PageSize)); err != nil {
		t.Fatal(err)
	}
	if err := src.Write(heap.Start+5, []byte{7}); err != nil {
		t.Fatal(err)
	}
	d := NewTracker().Delta(src)
	if len(d.Pages) != 1 || len(d.Pages[0].Data) != proc.LineSize || d.PageLen != proc.PageSize {
		t.Fatalf("the tracker lent %d pages, the first %d bytes long, PageLen %d", len(d.Pages), len(d.Pages[0].Data), d.PageLen)
	}
	if got := d.PageDataBytes(); got != proc.PageSize {
		t.Fatalf("PageDataBytes counts %d bytes for one page", got)
	}
	d.NewVMAs = nil // dst maps the region already
	if err := ApplyDelta(dst, d); err != nil {
		t.Fatal(err)
	}
	want, _ := src.Read(heap.Start, proc.PageSize)
	if got, _ := dst.Read(heap.Start, proc.PageSize); !bytes.Equal(got, want) {
		t.Fatal("the destination page kept bytes past the lent frame's end")
	}
}
