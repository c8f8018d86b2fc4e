package ckpt

import (
	"hash/fnv"
	"testing"

	"dvemig/internal/proc"
	"dvemig/internal/simtime"
)

// The checkpoint wire is pinned with bytes: one scripted address space
// — three regions, pages populated in descending index order (so a walk
// that forgets to order them encodes something else), one region
// resized across a 512-page boundary, one unmapped, two post-copy
// placeholders — is taken through three tracker rounds, a hybrid page
// directory and a full checkpoint, and the FNV-64a of every encoding
// must equal the value the map-backed address space produced at commit
// 8a35711. A change to proc's page table or to the encoders that moves
// one byte of what crosses the network fails here, not in a digest three
// layers up.

func wireHash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// wirePage writes one page of the scripted space: kind 0 a single byte
// (sparse), 1 a dense page (raw), 2 an explicit zero (zero record).
func wirePage(t *testing.T, as *proc.AddressSpace, v *proc.VMA, idx uint64, kind int) {
	t.Helper()
	var data []byte
	switch kind {
	case 0:
		data = []byte{byte(idx) | 1, 0, 0, 0, 0, 0, byte(idx >> 8)}
	case 1:
		data = make([]byte, proc.PageSize)
		for i := range data {
			data[i] = byte(uint64(i)*7+idx) | 1
		}
	case 2:
		data = []byte{0}
	}
	off := uint64(0)
	if kind == 0 {
		off = idx % 4000
	}
	if err := as.Write(v.Start+idx*proc.PageSize+off, data); err != nil {
		t.Fatal(err)
	}
}

func TestWireGolden(t *testing.T) {
	c := proc.NewCluster(simtime.NewScheduler(), 1)
	p := c.Nodes[0].Spawn("golden", 2)
	as := p.AS
	mustMap := func(start, pages uint64, perms string) *proc.VMA {
		v, err := as.MmapFixed(start, start+pages*proc.PageSize, perms)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	check := func(what string, enc []byte, want uint64) {
		t.Helper()
		if got := wireHash(enc); got != want {
			t.Errorf("%s: %d bytes hash %#x, want %#x", what, len(enc), got, want)
		}
	}

	a := mustMap(0x10000, 16, "rw-")
	b := mustMap(0x400000, 1100, "rw-")
	u := mustMap(0x2000000, 8, "r--")
	for i, idx := range []uint64{1090, 1030, 700, 513, 512, 511, 300, 64, 63, 1, 0} {
		wirePage(t, as, b, idx, i%3)
	}
	for i, idx := range []uint64{15, 9, 3} {
		wirePage(t, as, a, idx, i%3)
	}
	wirePage(t, as, u, 7, 0)
	wirePage(t, as, u, 2, 1)

	tr := NewTracker()
	check("round 1", tr.Delta(as).EncodeInto(nil), 0xa59e61f2c3098d3e)

	// Round 2: rewrites and fresh pages in descending order, a shrink
	// that cuts the middle leaf, an unmap and a new region.
	for i, idx := range []uint64{1090, 599, 513, 300, 2} {
		wirePage(t, as, b, idx, (i+1)%3)
	}
	must(as.Touch(a.Start + 9*proc.PageSize + 5))
	must(as.Resize(b.Start, 600*proc.PageSize))
	must(as.Munmap(u.Start))
	n := mustMap(0x3000000, 4, "rwx")
	wirePage(t, as, n, 3, 1)
	wirePage(t, as, n, 0, 0)
	check("round 2", tr.Delta(as).EncodeInto(nil), 0x1917d20ef2803d2e)

	// Round 3: a grow, pages in the new tail, touches of clean pages.
	must(as.Resize(a.Start, 32*proc.PageSize))
	wirePage(t, as, a, 31, 0)
	wirePage(t, as, a, 20, 2)
	must(as.Touch(b.Start + 512*proc.PageSize))
	must(as.Touch(b.Start + 5*proc.PageSize + 77))
	check("round 3", tr.Delta(as).EncodeInto(nil), 0xc6bb6892f619145e)

	// Freeze: one placeholder over a resident page, one on a fresh
	// index, two dirty pages; hybrid's rule is clean = present.
	must(as.MarkAbsent(b.Start, 64))
	must(as.MarkAbsent(a.Start, 5))
	must(as.Touch(b.Start + 300*proc.PageSize))
	must(as.Touch(a.Start + 3*proc.PageSize))
	dir := BuildPageDir(as, func(_ *proc.VMA, e proc.PTE) bool { return !e.Dirty })
	check("page dir", dir.Encode(), 0x3805a0ad7fac601e)
	if len(dir.Absent) != 2 {
		t.Errorf("directory lists %d absent pages, want the 2 dirty ones", len(dir.Absent))
	}
	check("checkpoint", Checkpoint(p).Encode(), 0xb87d7d7d45db795a)
}
