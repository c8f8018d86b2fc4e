package ckpt

import (
	"testing"

	"dvemig/internal/proc"
)

// The ckpt layer's micro-benchmarks: the page encoder by page shape, a
// source round (dirty scan + lend + encode) and a destination round on
// both apply paths. Sizes follow the repo benchmark's mem128m workload:
// 8192 resident pages, one byte each (sparse) — or each written end to
// end (dense), the shape that must not pay for short frames.

const benchPages = 8192

// benchSpace maps 4x benchPages and faults every fourth page in with
// one byte, the mem128m shape.
func benchSpace(b *testing.B) (*proc.AddressSpace, *proc.VMA) {
	b.Helper()
	as := proc.NewAddressSpace()
	heap := as.Mmap(4*benchPages*proc.PageSize, "rw-")
	for i := uint64(0); i < 4*benchPages; i += 4 {
		if err := as.Write(heap.Start+i*proc.PageSize, []byte{byte(i) | 1}); err != nil {
			b.Fatal(err)
		}
	}
	return as, heap
}

// benchDenseSpace is benchSpace with every resident page written end to
// end, no byte of it zero: each encodes raw.
func benchDenseSpace(b *testing.B) *proc.AddressSpace {
	b.Helper()
	as := proc.NewAddressSpace()
	heap := as.Mmap(4*benchPages*proc.PageSize, "rw-")
	page := make([]byte, proc.PageSize)
	for i := uint64(0); i < 4*benchPages; i += 4 {
		for j := range page {
			page[j] = byte(i+uint64(j))%255 + 1
		}
		if err := as.Write(heap.Start+i*proc.PageSize, page); err != nil {
			b.Fatal(err)
		}
	}
	return as
}

func BenchmarkEncodePage(b *testing.B) {
	shapes := []struct {
		name string
		fill func(p []byte)
	}{
		{"zero", func(p []byte) {}},
		{"one-byte", func(p []byte) { p[0] = 7 }},
		{"half-sparse", func(p []byte) {
			for i := 0; i < len(p); i += 64 {
				for j := i; j < i+32; j++ {
					p[j] = 0xEE
				}
			}
		}},
		{"dense", func(p []byte) {
			for i := range p {
				p[i] = byte(i%255) + 1
			}
		}},
	}
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			page := make([]byte, proc.PageSize)
			s.fill(page)
			buf := make([]byte, 0, 2*proc.PageSize)
			b.SetBytes(proc.PageSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = encodePage(buf[:0], page, len(page))
			}
		})
	}
}

// BenchmarkDeltaRound times one source round into a warm scratch: the
// first round (every resident page), sparse and dense, and a
// steady-state round with one page in 64 dirtied since the last.
func BenchmarkDeltaRound(b *testing.B) {
	first := func(b *testing.B, as *proc.AddressSpace) {
		var enc []byte
		b.SetBytes(benchPages * proc.PageSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			enc = NewTracker().Delta(as).EncodeInto(enc)
		}
	}
	b.Run("first", func(b *testing.B) {
		as, _ := benchSpace(b)
		first(b, as)
	})
	b.Run("dense", func(b *testing.B) { first(b, benchDenseSpace(b)) })
	b.Run("dirty-1-in-64", func(b *testing.B) {
		as, heap := benchSpace(b)
		tr := NewTracker()
		enc := tr.Delta(as).EncodeInto(nil)
		b.SetBytes(benchPages / 64 * proc.PageSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for pg := uint64(0); pg < 4*benchPages; pg += 4 * 64 {
				if err := as.Touch(heap.Start + pg*proc.PageSize); err != nil {
					b.Fatal(err)
				}
			}
			enc = tr.Delta(as).EncodeInto(enc)
		}
	})
}

// benchApply times a destination's first round (every page fresh) of
// src into a new address space per iteration.
func benchApply(b *testing.B, src *proc.AddressSpace, apply func(as *proc.AddressSpace, payload []byte) error) {
	payload := NewTracker().Delta(src).Encode()
	b.SetBytes(benchPages * proc.PageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := apply(proc.NewAddressSpace(), payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApplyInPlace(b *testing.B) {
	b.Run("sparse", func(b *testing.B) {
		src, _ := benchSpace(b)
		benchApply(b, src, ApplyEncodedDelta)
	})
	b.Run("dense", func(b *testing.B) { benchApply(b, benchDenseSpace(b), ApplyEncodedDelta) })
}

func BenchmarkDecodeThenApply(b *testing.B) {
	src, _ := benchSpace(b)
	benchApply(b, src, refApply)
}

// BenchmarkZeroScan times the zero scan where mem128m runs it: over
// benchPages separately allocated pages with one byte set each, 32 MiB
// that no cache holds, so the scan is timed against memory the way the
// first precopy round meets it — not against one warm page.
func BenchmarkZeroScan(b *testing.B) {
	pages := make([][]byte, benchPages)
	for i := range pages {
		pages[i] = make([]byte, proc.PageSize)
		pages[i][0] = byte(i) | 1
	}
	b.SetBytes(benchPages * proc.PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pages {
			if skipZeros(p, 1) != len(p) {
				b.Fatal("a page with one byte set has a second non-zero byte")
			}
		}
	}
}
