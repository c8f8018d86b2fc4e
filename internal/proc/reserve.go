package proc

import (
	"math/bits"
	"sync"
	"unsafe"
)

// The page reserve lends a finished address space's page memory to the
// next space, across processes and across simulation cells: a benchmark
// or a sweep builds a fresh cell, so fresh processes, per migration, and
// only a process-wide reserve outlives one. It holds two kinds of item:
//
//   - idle full-size page-table leaves (leafPages slots), every frame
//     slot nil and every bitmap and length word zero;
//   - frame chunks, the allocations page faults and restore slabs cut
//     frames from, in power-of-two classes from a line to maxChunk.
//
// AddressSpace.Retire fills it; newLeaf and takeChunk draw from it
// before they allocate. A chunk's bytes are garbage while it is filed
// (0xDB under PoisonRetired) and zeroed when it is taken. One mutex
// guards it, taken once per leaf or chunk moved, never per frame, and it
// holds at most reserveMB megabytes; what Retire brings past that goes
// to the collector.
const (
	minChunk     = LineSize
	maxChunk     = 1 << 20
	chunkClasses = 15 // 64 B … 1 MiB
	reserveMB    = 16

	// leafBytes is what one idle full leaf holds: its slot array, its
	// three bitmaps and its length words.
	leafBytes = leafPages*8 + (3*leafPages/64+leafPages/8)*8
)

var reserve struct {
	sync.Mutex
	bytes  int // held, leaves and chunks together; at most reserveMB MB
	leaves []leaf
	chunks [chunkClasses][]*byte // exact class-size backing arrays
}

// poisonRetired is the retirement tripwire: while set, Retire overwrites
// every chunk it files with 0xDB, so whoever still reads a retired
// space's frames sees garbage at once instead of whenever the chunk is
// taken again.
var poisonRetired bool

// PoisonRetired turns the tripwire on for the rest of the process. Test
// packages call it; the simulation never does.
func PoisonRetired() { poisonRetired = true }

// chunkClass returns the class of the smallest class size that holds n
// bytes, 0 < n <= maxChunk, and that size.
func chunkClass(n int) (class, size int) {
	class = max(bits.Len(uint(n-1)), bits.Len(minChunk-1)) - bits.Len(minChunk-1)
	return class, minChunk << class
}

// takeChunk returns a zeroed buffer of at least n bytes: the class size
// that holds n, from the reserve when one is filed there, or exactly n
// bytes past maxChunk.
func takeChunk(n int) []byte {
	if n > maxChunk {
		return make([]byte, n)
	}
	c, size := chunkClass(n)
	var p *byte
	reserve.Lock()
	if list := reserve.chunks[c]; len(list) > 0 {
		p = list[len(list)-1]
		list[len(list)-1] = nil
		reserve.chunks[c] = list[:len(list)-1]
		reserve.bytes -= size
	}
	reserve.Unlock()
	if p == nil {
		return make([]byte, size)
	}
	b := unsafe.Slice(p, size)
	clear(b)
	return b
}

// fileChunk files a chunk Retire took from a space; one that is not a
// class size, or does not fit under the cap, is left to the collector.
func fileChunk(b []byte) {
	n := cap(b)
	if n < minChunk || n > maxChunk || n&(n-1) != 0 {
		return
	}
	b = b[:n]
	if poisonRetired {
		b[0] = 0xDB
		for i := 1; i < n; i *= 2 {
			copy(b[i:], b[:i])
		}
	}
	c, _ := chunkClass(n)
	reserve.Lock()
	if reserve.bytes+n <= reserveMB<<20 {
		reserve.chunks[c] = append(reserve.chunks[c], &b[0])
		reserve.bytes += n
	}
	reserve.Unlock()
}

// takeLeaf returns an idle full leaf from the reserve, false when none
// is filed.
func takeLeaf() (l leaf, ok bool) {
	reserve.Lock()
	if n := len(reserve.leaves); n > 0 {
		l, ok = reserve.leaves[n-1], true
		reserve.leaves[n-1] = leaf{}
		reserve.leaves = reserve.leaves[:n-1]
		reserve.bytes -= leafBytes
	}
	reserve.Unlock()
	return l, ok
}

// fileLeaf empties a full leaf and files it, under the cap.
func fileLeaf(l *leaf) {
	clear(l.frames)
	clear(l.present)
	clear(l.dirty)
	clear(l.absent)
	clear(l.lines)
	reserve.Lock()
	if reserve.bytes+leafBytes <= reserveMB<<20 {
		reserve.leaves = append(reserve.leaves, *l)
		reserve.bytes += leafBytes
	}
	reserve.Unlock()
}

// Retire hands the space's page memory to the reserve and empties the
// space: its full-size leaves and the chunks its frames were cut from
// go to the next space that needs them, and the space is left with no
// region (a *VMA kept from before reads as holding no page). Nothing may
// read a frame of the space afterwards. The migration source retires a
// committed process's space, and proc.Cluster.Retire every live one at
// a cell's end.
func (as *AddressSpace) Retire() {
	for _, v := range as.vmas {
		for i := range v.leaves {
			if l := &v.leaves[i]; len(l.frames) == leafPages {
				fileLeaf(l)
			}
		}
		v.leaves, v.last, v.present, v.absent = nil, 0, 0, 0
	}
	for _, c := range as.chunks {
		fileChunk(c)
	}
	as.vmas, as.chunks, as.off = nil, nil, 0
}
