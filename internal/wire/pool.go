package wire

import (
	"math/bits"
	"slices"
	"sync"
	"unsafe"
)

// The buffer pool lends the large buffers a migd connection fills and
// empties once per migration — the socket's send buffer, the receive
// buffer, the chunk reassembly buffer and the socket tracker's arena —
// across migrations and across simulation cells. A benchmark or a sweep
// builds a fresh cell, and so a fresh Migrator, per migration; only a
// process-wide pool outlives one.
//
// Buffers come in power-of-two classes from minPooledBuf to maxKeptBuf.
// Below that nothing is pooled: a small buffer rounded up to a class
// would cost more bytes than the pool saves. Each class is a free list
// under its own lock, of pointers to exact class-size backing arrays,
// not slice headers, so a Take that hits and every Give allocate
// nothing. Unlike a sync.Pool a list survives collections and is one
// list for every goroutine, so a Take misses only when every buffer of
// its class is out. A list keeps at most classKeptBytes of buffers;
// Give drops one past that to the collector.
const (
	minPooledBuf   = 64 << 10
	maxKeptBuf     = 1 << 20
	bufClasses     = 5 // 64, 128, 256 and 512 KiB, 1 MiB
	classKeptBytes = 4 << 20
)

var bufPools [bufClasses]struct {
	sync.Mutex
	free []*byte
}

// poisonGiven is the pool's tripwire: when set, Give overwrites the
// buffer's whole capacity with 0xDB, so a holder that kept a buffer it
// gave back reads garbage at once instead of whenever it is taken again.
var poisonGiven bool

// PoisonGiven turns the tripwire on for the rest of the process. Test
// packages call it; the simulation never does.
func PoisonGiven() { poisonGiven = true }

// Take returns an empty buffer of capacity at least n. Between
// minPooledBuf and maxKeptBuf it is a class-size buffer, from the pool
// when one is there; its bytes past len 0 are garbage. Otherwise it is
// made with capacity exactly n.
func Take(n int) []byte {
	if n < minPooledBuf || n > maxKeptBuf {
		return make([]byte, 0, n)
	}
	c := bits.Len(uint(n-1)) - bits.Len(minPooledBuf-1)
	size := minPooledBuf << c
	pool := &bufPools[c]
	var p *byte
	pool.Lock()
	if last := len(pool.free) - 1; last >= 0 {
		p = pool.free[last]
		pool.free[last] = nil
		pool.free = pool.free[:last]
	}
	pool.Unlock()
	if p == nil {
		return make([]byte, 0, size)
	}
	return unsafe.Slice(p, size)[:0]
}

// Grow returns b with room for at least n more bytes, as slices.Grow
// does. When b must grow to a pooled size, the new buffer comes from Take
// and b is given back, so the caller must hold no other reference into b.
func Grow(b []byte, n int) []byte {
	need := len(b) + n
	if need <= cap(b) {
		return b
	}
	if need < minPooledBuf || need > maxKeptBuf {
		return slices.Grow(b, n)
	}
	nb := append(Take(need), b...)
	Give(b)
	return nb
}

// Give files b for a later Take and reports whether it took it. A buffer
// it takes is nobody's from then on: whoever gave it keeps no reference
// into it (a full class lets it go to the collector). A capacity that is
// not a class size is refused, and the buffer stays the caller's.
func Give(b []byte) bool {
	n := cap(b)
	if n < minPooledBuf || n > maxKeptBuf || n&(n-1) != 0 {
		return false
	}
	b = b[:n]
	if poisonGiven {
		b[0] = 0xDB
		for i := 1; i < n; i *= 2 { // doubling copies: a megabyte in 20 moves
			copy(b[i:], b[:i])
		}
	}
	pool := &bufPools[bits.Len(uint(n))-bits.Len(minPooledBuf)]
	pool.Lock()
	if len(pool.free) < classKeptBytes/n {
		pool.free = append(pool.free, &b[0])
	}
	pool.Unlock()
	return true
}
