package ckpt

import (
	"bytes"
	"testing"

	"dvemig/internal/proc"
	"dvemig/internal/wire/wiretest"
)

// checkEncodedSize fails t unless d's EncodedSize is the length of its
// encoding.
func checkEncodedSize(t *testing.T, what string, d *MemDelta) {
	t.Helper()
	if got, want := d.EncodedSize(), len(d.Encode()); got != want {
		t.Errorf("%s: EncodedSize %d, encoding is %d bytes (%d pages, page length %d)",
			what, got, want, len(d.Pages), d.PageLen)
	}
}

// corpusPages is every committed corpus entry of the package's fuzz
// targets taken as page content, cut to a page.
func corpusPages(t *testing.T) [][]byte {
	var pages [][]byte
	for _, target := range []string{"FuzzPageCodec", "FuzzApplyEncodedDelta", "FuzzApplyPageDir"} {
		for _, args := range wiretest.Corpus(t, target) {
			b := args[0].([]byte)
			pages = append(pages, b[:min(len(b), proc.PageSize)])
		}
	}
	if len(pages) == 0 {
		t.Fatal("no committed corpus entries")
	}
	return pages
}

// TestMemDeltaEncodedSize: EncodedSize is exactly the encoding's length —
// AppendEncode reserves it, so a short count regrows the buffer and a
// long one wastes it — for hand-built deltas (each page exactly its
// Data) and tracker deltas (page frames, PageLen = proc.PageSize), over
// the random precopy workloads' seeds, a density sweep, and the
// committed fuzz corpora taken both as page content and, where they
// decode, as deltas.
func TestMemDeltaEncodedSize(t *testing.T) {
	for seed := int64(1); seed <= precopySeeds; seed++ {
		randomPrecopy(seed, func(_ int, d *MemDelta) { checkEncodedSize(t, "random precopy", d) })
	}

	x := uint64(0x9E3779B97F4A7C15)
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	sweep := &MemDelta{Round: 1, Removed: []uint64{0x1000}, Resized: []VMARange{{Start: 0x1000, End: 0x3000, Perms: "r--"}}}
	for i := 0; i < 200; i++ {
		data := make([]byte, rnd()%(proc.PageSize+1))
		density := rnd() % 100
		for j := range data {
			if rnd()%100 < density {
				data[j] = byte(rnd())
			}
		}
		sweep.Pages = append(sweep.Pages, PageImage{VMAStart: 0x10000, Index: uint64(i), Data: data})
	}
	checkEncodedSize(t, "density sweep", sweep)
	sweep.PageLen = proc.PageSize // the same content as frames of full pages
	checkEncodedSize(t, "density sweep as frames", sweep)

	pages := corpusPages(t)
	hand := &MemDelta{NewVMAs: []VMARange{{Start: 0x10000, End: 0x20000, Perms: "rw-"}}}
	for i, b := range pages {
		hand.Pages = append(hand.Pages, PageImage{VMAStart: 0x10000, Index: uint64(i), Data: b})
	}
	checkEncodedSize(t, "corpus pages", hand)
	for _, args := range wiretest.Corpus(t, "FuzzApplyEncodedDelta") {
		if d, err := DecodeMemDelta(args[0].([]byte)); err == nil {
			checkEncodedSize(t, "decoded corpus delta", d)
		}
	}

	// The corpus written into an address space, one entry a page: the
	// tracker lends frames cut to the lines the writes reached.
	as := proc.NewAddressSpace()
	heap := as.Mmap(uint64(len(pages))*proc.PageSize, "rw-")
	tr := NewTracker()
	tr.Delta(as)
	for i, b := range pages {
		if err := as.Write(heap.Start+uint64(i)*proc.PageSize, b); err != nil {
			t.Fatal(err)
		}
	}
	d := tr.Delta(as)
	if d.PageLen != proc.PageSize || len(d.Pages) == 0 {
		t.Fatalf("tracker delta: %d pages, page length %d", len(d.Pages), d.PageLen)
	}
	checkEncodedSize(t, "corpus written as frames", d)
}

// TestAllocGateMemDeltaEncode: encoding a delta into a nil buffer makes
// exactly one allocation, the encoding's own, whatever the mix of zero,
// sparse and raw pages; so does encoding into a buffer that runs out
// halfway, and into one that holds the whole encoding there is none.
// Encoding the space's page directory allocates once too.
func TestAllocGateMemDeltaEncode(t *testing.T) {
	as := proc.NewAddressSpace()
	heap := as.Mmap(64*proc.PageSize, "rw-")
	dense := make([]byte, proc.PageSize)
	for i := range dense {
		dense[i] = byte(i%251) + 1
	}
	for i := uint64(0); i < 64; i++ {
		addr := heap.Start + i*proc.PageSize
		var err error
		switch i % 4 {
		case 0: // zero: touched, never written
			err = as.Touch(addr)
		case 1: // one line
			err = as.Write(addr+8, []byte{1, 2, 3})
		case 2: // sparse across the page
			err = as.Write(addr+3000, []byte{9})
		case 3:
			err = as.Write(addr, dense)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	d := NewTracker().Delta(as)
	var out []byte
	allocs := testing.AllocsPerRun(10, func() { out = d.AppendEncode(nil) })
	if allocs != 1 && !wiretest.SkipAllocBound(t, "AppendEncode(nil)") {
		t.Fatalf("AppendEncode(nil) of %d pages allocates %.0f times, want 1", len(d.Pages), allocs)
	}
	if len(out) != d.EncodedSize() {
		t.Fatalf("encoded %d bytes, EncodedSize %d", len(out), d.EncodedSize())
	}
	for _, room := range []int{len(out) / 2, len(out)} {
		var got []byte
		scratch := make([]byte, 0, room)
		want := 0.0
		if room < len(out) {
			want = 1
		}
		if allocs := testing.AllocsPerRun(10, func() { got = d.AppendEncode(scratch) }); allocs != want && !wiretest.SkipAllocBound(t, "AppendEncode into a scratch") {
			t.Fatalf("AppendEncode into %d spare bytes of %d allocates %.0f times, want %.0f", room, len(out), allocs, want)
		}
		if !bytes.Equal(got, out) {
			t.Fatalf("AppendEncode into %d spare bytes wrote a different encoding", room)
		}
	}
	dir := BuildPageDir(as, func(_ *proc.VMA, e proc.PTE) bool { return e.Index%2 == 0 })
	if allocs := testing.AllocsPerRun(10, func() { out = dir.Encode() }); allocs != 1 && !wiretest.SkipAllocBound(t, "PageDir.Encode") {
		t.Fatalf("encoding a page directory of %d pages allocates %.0f times, want 1", len(dir.Present)+len(dir.Absent), allocs)
	}
}
