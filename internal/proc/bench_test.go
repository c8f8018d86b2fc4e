package proc

import "testing"

// The proc layer's micro-benchmarks, on the repo benchmark's mem128m
// shape: a 32 768-page region with every fourth page resident — one
// byte stored in each (sparse), or each written end to end (dense).

const (
	benchPages    = 32768
	benchResident = benchPages / 4
)

// benchFaultIn maps the region and touches every fourth page.
func benchFaultIn(b *testing.B) (*AddressSpace, *VMA) {
	as := NewAddressSpace()
	heap := as.Mmap(benchPages*PageSize, "rw-")
	for i := uint64(0); i < benchPages; i += 4 {
		if err := as.Touch(heap.Start + i*PageSize); err != nil {
			b.Fatal(err)
		}
	}
	return as, heap
}

// benchFaultInDense maps the region and writes every fourth page end to
// end with content.
func benchFaultInDense(b *testing.B, content []byte) {
	as := NewAddressSpace()
	heap := as.Mmap(benchPages*PageSize, "rw-")
	for i := uint64(0); i < benchPages; i += 4 {
		if err := as.Write(heap.Start+i*PageSize, content); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultIn times the fault path: leaves, frame chunks and the
// frames' zeroing, 8 192 pages into a fresh space per iteration. A
// sparse page's frame is one line; a dense page's is the full page,
// zeroed and then written over.
func BenchmarkFaultIn(b *testing.B) {
	b.Run("sparse", func(b *testing.B) {
		b.SetBytes(benchResident * PageSize)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchFaultIn(b)
		}
	})
	b.Run("dense", func(b *testing.B) {
		content := make([]byte, PageSize)
		for i := range content {
			content[i] = byte(i%255) + 1
		}
		b.SetBytes(benchResident * PageSize)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchFaultInDense(b, content)
		}
	})
}

// BenchmarkTouchResident times a store to a page that is already there:
// region lookup, leaf lookup (the last-hit cache), two bitmap words.
func BenchmarkTouchResident(b *testing.B) {
	as, heap := benchFaultIn(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := as.Touch(heap.Start + uint64(i)%benchResident*4*PageSize); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDirtyScan times one precopy round's scan of the table: count
// the dirty pages, list them in order, clear the bits — with one
// resident page in four dirtied since the last round.
func BenchmarkDirtyScan(b *testing.B) {
	as, heap := benchFaultIn(b)
	as.ClearDirty()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for pg := uint64(0); pg < benchPages; pg += 16 {
			if err := as.Touch(heap.Start + pg*PageSize); err != nil {
				b.Fatal(err)
			}
		}
		if n := len(as.DirtyPages()); n != heap.DirtyCount() || n != benchResident/4 {
			b.Fatalf("%d dirty pages listed, %d counted, want %d", n, heap.DirtyCount(), benchResident/4)
		}
		as.ClearDirty()
	}
}
