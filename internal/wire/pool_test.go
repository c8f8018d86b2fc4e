package wire

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

func init() { PoisonGiven() }

func TestTakeIsEmptyWithRoom(t *testing.T) {
	for _, n := range []int{0, 1, minPooledBuf - 1, minPooledBuf, minPooledBuf + 1, 300 << 10, maxKeptBuf, maxKeptBuf + 1} {
		b := Take(n)
		if len(b) != 0 || cap(b) < n {
			t.Errorf("Take(%d): len %d cap %d, want len 0 and cap at least %d", n, len(b), cap(b), n)
		}
		pooled := n >= minPooledBuf && n <= maxKeptBuf
		if !pooled && cap(b) != n {
			t.Errorf("Take(%d) outside the classes: cap %d, want exactly %d", n, cap(b), n)
		}
		if pooled && (cap(b)&(cap(b)-1) != 0 || cap(b) >= 2*n) {
			t.Errorf("Take(%d): cap %d, want the smallest power of two holding it", n, cap(b))
		}
	}
}

// TestGiveRefusesOtherCapacities: only an exact class size is filed; a
// buffer below the classes, above them or between two of them stays the
// caller's, untouched, and no Take hands it out.
func TestGiveRefusesOtherCapacities(t *testing.T) {
	for _, c := range []int{minPooledBuf / 2, minPooledBuf - 1, minPooledBuf + 4096, 3 * minPooledBuf, 2 * maxKeptBuf} {
		b := make([]byte, 1, c)
		b[0] = 7
		if Give(b) {
			t.Errorf("Give took a buffer of capacity %d", c)
		}
		if b[0] != 7 {
			t.Errorf("a refused buffer of capacity %d was poisoned", c)
		}
		if n := min(max(c, minPooledBuf), maxKeptBuf); unsafe.SliceData(Take(n)) == unsafe.SliceData(b) {
			t.Errorf("Take(%d) handed out a refused buffer of capacity %d", n, c)
		}
	}
	if !Give(Take(minPooledBuf)) || !Give(make([]byte, 0, maxKeptBuf)) {
		t.Error("Give refused a class-size buffer")
	}
}

// TestGivePoisons: with the tripwire on, a given buffer reads 0xDB over
// its whole capacity, so whoever kept it sees garbage at once.
func TestGivePoisons(t *testing.T) {
	b := append(Take(minPooledBuf), "kept"...)
	Give(b)
	for i, v := range b[:cap(b)] {
		if v != 0xDB {
			t.Fatalf("byte %d of a given buffer reads %#x, want 0xDB", i, v)
		}
	}
}

// TestGrowMovesIntoPool: growing to a pooled size moves the bytes into a
// class-size buffer and gives the old one back; below the classes Grow
// is slices.Grow.
func TestGrowMovesIntoPool(t *testing.T) {
	small := append(make([]byte, 0, 16), "abc"...)
	if g := Grow(small, 100); string(g) != "abc" || cap(g) < 103 {
		t.Fatalf("small grow: %q cap %d", g, cap(g))
	}
	old := append(make([]byte, 0, minPooledBuf), "abc"...)
	g := Grow(old, minPooledBuf)
	if string(g) != "abc" || cap(g) != 2*minPooledBuf {
		t.Fatalf("pooled grow: %q cap %d, want \"abc\" in %d", g[:min(len(g), 3)], cap(g), 2*minPooledBuf)
	}
	if old[0] != 0xDB {
		t.Fatal("the outgrown buffer was not given back")
	}
	if h := Grow(g, 10); unsafe.SliceData(h) != unsafe.SliceData(g) {
		t.Fatal("Grow moved a buffer that had room")
	}
}

// TestAllocGatePool: a Take the pool can serve and every Give allocate
// nothing — the pool holds the backing array's pointer, not a boxed
// slice header — under the race detector too, and across a collection:
// the free lists are plain slices, which neither drops.
func TestAllocGatePool(t *testing.T) {
	for _, n := range []int{minPooledBuf, 200 << 10, maxKeptBuf} {
		Give(Take(n))
		runtime.GC()
		allocs := testing.AllocsPerRun(100, func() { Give(Take(n)) })
		if allocs != 0 {
			t.Errorf("Take(%d)+Give: %.1f allocs, want 0", n, allocs)
		}
	}
}

// TestGiveKeepsAClassCapped: a class keeps at most classKeptBytes of
// buffers; a Give past that still takes the buffer (it is the
// collector's now) but files nothing more.
func TestGiveKeepsAClassCapped(t *testing.T) {
	n := maxKeptBuf
	held := make([][]byte, classKeptBytes/n+2)
	for i := range held {
		held[i] = Take(n)
	}
	for _, b := range held {
		if !Give(b) {
			t.Fatal("Give refused a class-size buffer")
		}
	}
	pool := &bufPools[bufClasses-1]
	pool.Lock()
	kept := len(pool.free)
	pool.Unlock()
	if kept != classKeptBytes/n {
		t.Fatalf("the %d-byte class keeps %d buffers, want its cap %d", n, kept, classKeptBytes/n)
	}
}

// TestPoolConcurrent: goroutines taking, filling and giving back
// buffers of every class at once each read back only their own bytes
// (run it with -race).
func TestPoolConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(mark byte) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := minPooledBuf << (i % bufClasses)
				b := Take(n)[:n-i]
				for j := 0; j < len(b); j += 4096 {
					b[j] = mark
				}
				for j := 0; j < len(b); j += 4096 {
					if b[j] != mark {
						t.Errorf("goroutine %d: byte %d reads %#x", mark, j, b[j])
						return
					}
				}
				Give(b)
			}
		}(byte(g))
	}
	wg.Wait()
}
