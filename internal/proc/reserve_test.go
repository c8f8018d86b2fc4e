package proc

import (
	"bytes"
	"slices"
	"testing"
	"unsafe"

	"dvemig/internal/wire/wiretest"
)

// emptyReserve drops everything the page reserve holds, so a test
// starts from a cold reserve whatever ran before it.
func emptyReserve() {
	reserve.Lock()
	defer reserve.Unlock()
	reserve.leaves = nil
	reserve.chunks = [chunkClasses][]*byte{}
	reserve.bytes = 0
}

// reserveShape builds the space the reserve tests retire: a 4 MiB region
// (two full leaves) with one line stored in every fourth page, a
// 64-page region (one short leaf), and a 200 KiB restore slab.
func reserveShape(tb testing.TB) *AddressSpace {
	as := NewAddressSpace()
	heap := as.Mmap(2*leafPages*PageSize, "rw-")
	for i := uint64(0); i < 256; i++ {
		if err := as.Write(heap.Start+i*4*PageSize, []byte{byte(i + 1)}); err != nil {
			tb.Fatal(err)
		}
	}
	small := as.Mmap(64*PageSize, "rw-")
	if err := as.Touch(small.Start); err != nil {
		tb.Fatal(err)
	}
	copy(as.Slab(200<<10), "restored")
	return as
}

// pageMemory lists the first byte of every full leaf's slot array and
// of every chunk the space holds: the items Retire files.
func pageMemory(as *AddressSpace) (leaves, chunks []uintptr) {
	for _, v := range as.vmas {
		for _, l := range v.leaves {
			if len(l.frames) == leafPages {
				leaves = append(leaves, uintptr(unsafe.Pointer(&l.frames[0])))
			}
		}
	}
	for _, c := range as.chunks {
		chunks = append(chunks, uintptr(unsafe.Pointer(&c[0])))
	}
	slices.Sort(leaves)
	slices.Sort(chunks)
	return leaves, chunks
}

// TestRetiredSpaceFeedsTheNext: a space built after another of the
// same shape was retired draws every full leaf and every chunk from the
// reserve — the very arrays the retired one held — and allocates none:
// what it allocates is its own headers (the space, its regions and
// their lists), less than one leaf's slot array.
func TestRetiredSpaceFeedsTheNext(t *testing.T) {
	emptyReserve()
	as := reserveShape(t)
	leaves, chunks := pageMemory(as)
	if len(leaves) != 2 || len(chunks) < 2 {
		t.Fatalf("the shape holds %d full leaves and %d chunks, want 2 and several", len(leaves), len(chunks))
	}
	as.Retire()
	if len(as.VMAs()) != 0 || as.ResidentBytes() != 0 || len(as.chunks) != 0 {
		t.Fatalf("a retired space keeps %d regions, %d resident bytes, %d chunks", len(as.VMAs()), as.ResidentBytes(), len(as.chunks))
	}
	next := reserveShape(t)
	gotLeaves, gotChunks := pageMemory(next)
	if !slices.Equal(gotLeaves, leaves) || !slices.Equal(gotChunks, chunks) {
		t.Fatalf("the next space drew leaves %x and chunks %x, the retired one held %x and %x",
			gotLeaves, gotChunks, leaves, chunks)
	}
	next.Retire()
	cycle := func() { reserveShape(t).Retire() }
	if got := wiretest.AllocatedBytes(cycle); got >= leafPages*8 && !wiretest.SkipAllocBound(t, "a warm space") {
		t.Fatalf("a space built on a warm reserve allocated %d bytes, as much as a leaf's slot array (%d)", got, leafPages*8)
	}
	emptyReserve()
	if cold := wiretest.AllocatedBytes(cycle); cold < 2*leafBytes+200<<10 {
		t.Fatalf("a space built on a cold reserve allocated %d bytes, less than its leaves and slab", cold)
	}
}

// TestReserveCapHolds: retiring far more page memory than the cap lets
// the reserve keep at most reserveMB megabytes, counted exactly, and
// what it keeps is every item's own size.
func TestReserveCapHolds(t *testing.T) {
	emptyReserve()
	defer emptyReserve()
	for i := 0; i < 3*reserveMB; i++ {
		as := NewAddressSpace()
		v := as.Mmap(8*leafPages*PageSize, "rw-")
		for j := uint64(0); j < 8; j++ {
			if err := as.Touch(v.Start + j*leafPages*PageSize); err != nil {
				t.Fatal(err)
			}
		}
		as.Slab(maxChunk)
		as.Retire()
	}
	reserve.Lock()
	defer reserve.Unlock()
	held := len(reserve.leaves) * leafBytes
	for c, list := range reserve.chunks {
		held += len(list) * minChunk << c
	}
	if held != reserve.bytes || held > reserveMB<<20 {
		t.Fatalf("the reserve holds %d bytes and counts %d, cap %d", held, reserve.bytes, reserveMB<<20)
	}
	if len(reserve.leaves) == 0 || len(reserve.chunks[chunkClasses-1]) == 0 {
		t.Fatalf("the reserve kept %d leaves and %d 1 MiB chunks, want some of each", len(reserve.leaves), len(reserve.chunks[chunkClasses-1]))
	}
}

// TestTakenChunkReadsZero: the package runs with retired chunks
// poisoned (export_test.go), so a chunk reads 0xDB while it is filed; a
// space that draws it — the very chunks a retired space of full pages
// held — gets it zeroed: each page reads zero but for the byte stored,
// a slab reads zero throughout, and a leaf carries no bit over.
func TestTakenChunkReadsZero(t *testing.T) {
	emptyReserve()
	defer emptyReserve()
	full := bytes.Repeat([]byte{7}, PageSize)
	build := func(page []byte, off uint64) (*AddressSpace, *VMA) {
		as := NewAddressSpace()
		v := as.Mmap(leafPages*PageSize, "rw-")
		for i := uint64(0); i < 16; i++ {
			if err := as.Write(v.Start+i*PageSize+off, page); err != nil {
				t.Fatal(err)
			}
		}
		copy(as.Slab(32<<10), page)
		return as, v
	}
	as, _ := build(full, 0)
	_, chunks := pageMemory(as)
	last := as.chunks[len(as.chunks)-1]
	as.Retire()
	if last[0] != 0xDB || last[len(last)-1] != 0xDB {
		t.Fatal("a retired chunk is not poisoned")
	}

	as, v := build([]byte{1}, PageSize-1) // a frame reaching the page's last byte is a full page
	if _, got := pageMemory(as); !slices.Equal(got, chunks) {
		t.Fatalf("the space drew chunks %x, the retired one held %x", got, chunks)
	}
	for i := uint64(0); i < 16; i++ {
		if got, _ := as.Read(v.Start+i*PageSize, PageSize); got[PageSize-1] != 1 || !allZero(got[:PageSize-1]) {
			t.Fatalf("page %d of a space built on a poisoned reserve reads %x…", i, got[:8])
		}
	}
	if s := as.chunks[len(as.chunks)-1]; !allZero(s[1:]) {
		t.Fatal("a slab drawn from a poisoned reserve is not zero")
	}
	if v.DirtyCount() != 16 || v.Resident() != 16 {
		t.Fatalf("a leaf from the reserve carried bits over: %d dirty, %d resident", v.DirtyCount(), v.Resident())
	}
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
