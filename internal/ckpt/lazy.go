package ckpt

import (
	"encoding/binary"
	"fmt"
	"slices"

	"dvemig/internal/proc"
	"dvemig/internal/wire"
)

// PageCoord names one page of an address space: the owning region's
// start address and the page index within it.
type PageCoord struct {
	VMAStart uint64
	Index    uint64
}

// Addr returns the page's virtual address.
func (c PageCoord) Addr() uint64 { return c.VMAStart + c.Index*proc.PageSize }

// PageDir is the partial-image directory a post-copy (or hybrid)
// migration ships at freeze time instead of page content: the full VMA
// geometry plus, for every resident page, a presence verdict. Present
// pages already hold their authoritative content on the destination
// (hybrid's bounded pre-copy round shipped them and they stayed clean);
// absent pages stay on the source and are pulled on demand or swept by
// the background prefetcher. Unlisted pages were never materialized and
// remain lazy zero pages on both sides.
type PageDir struct {
	VMAs    []VMARange
	Present []PageCoord
	Absent  []PageCoord
}

// BuildPageDir walks the address space in canonical (VMA, index) order
// and classifies every resident page with the present predicate. A nil
// predicate marks everything absent (pure post-copy).
func BuildPageDir(as *proc.AddressSpace, present func(v *proc.VMA, e proc.PTE) bool) *PageDir {
	dir := &PageDir{}
	for _, v := range as.VMAs() {
		dir.VMAs = append(dir.VMAs, VMARange{Start: v.Start, End: v.End, Perms: v.Perms})
		v.Entries(func(e proc.PTE) {
			c := PageCoord{VMAStart: v.Start, Index: e.Index}
			if present != nil && present(v, e) {
				dir.Present = append(dir.Present, c)
			} else {
				dir.Absent = append(dir.Absent, c)
			}
		})
	}
	return dir
}

// Encode serializes the directory.
func (d *PageDir) Encode() []byte { return d.AppendEncode(nil) }

// AppendEncode appends the directory's encoding to dst (see
// Image.AppendEncode), reserving its exact size first.
func (d *PageDir) AppendEncode(dst []byte) []byte {
	n := 4 + 4 + 4 + 16*(len(d.Present)+len(d.Absent))
	for _, v := range d.VMAs {
		n += vmaSize(v)
	}
	b := binary.BigEndian.AppendUint32(slices.Grow(dst, n), uint32(len(d.VMAs)))
	for _, v := range d.VMAs {
		b = appendVMA(b, v)
	}
	for _, set := range [][]PageCoord{d.Present, d.Absent} {
		b = binary.BigEndian.AppendUint32(b, uint32(len(set)))
		for _, c := range set {
			b = binary.BigEndian.AppendUint64(b, c.VMAStart)
			b = binary.BigEndian.AppendUint64(b, c.Index)
		}
	}
	return b
}

// DecodePageDir parses an encoded directory.
func DecodePageDir(data []byte) (*PageDir, error) {
	r := wire.NewReader(data)
	d := &PageDir{}
	nv := int(r.U32())
	if r.Err() != nil || nv > 1<<20 {
		return nil, fmt.Errorf("ckpt: corrupt page-dir vma count")
	}
	for i := 0; i < nv && r.Err() == nil; i++ {
		d.VMAs = append(d.VMAs, readVMA(&r))
	}
	for set := 0; set < 2; set++ {
		n := int(r.U32())
		if r.Err() != nil || n > 1<<24 {
			return nil, fmt.Errorf("ckpt: corrupt page-dir coord count")
		}
		coords := make([]PageCoord, 0, min(n, len(r.Rest())/16)) // no more than the payload can hold
		for i := 0; i < n && r.Err() == nil; i++ {
			coords = append(coords, PageCoord{VMAStart: r.U64(), Index: r.U64()})
		}
		if set == 0 {
			d.Present = coords
		} else {
			d.Absent = coords
		}
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	return d, nil
}

// ApplyPageDir reconciles the destination's shadow address space with
// the freeze-time directory: geometry is brought to the frozen shape
// (pure post-copy starts from an empty shadow; hybrid's shadow already
// holds round-one state), every present page is verified resident, and
// every absent page gets a placeholder that faults until filled.
func ApplyPageDir(as *proc.AddressSpace, dir *PageDir) error {
	want := make(map[uint64]VMARange, len(dir.VMAs))
	for _, v := range dir.VMAs {
		want[v.Start] = v
	}
	var stale []uint64
	for _, v := range as.VMAs() {
		if _, ok := want[v.Start]; !ok {
			stale = append(stale, v.Start)
		}
	}
	for _, s := range stale {
		if err := as.Munmap(s); err != nil {
			return err
		}
	}
	for _, v := range dir.VMAs {
		cur := findRegion(as, v.Start)
		switch {
		case cur == nil:
			if _, err := as.MmapFixed(v.Start, v.End, v.Perms); err != nil {
				return err
			}
		case cur.End != v.End:
			if err := as.Resize(v.Start, v.End-v.Start); err != nil {
				return err
			}
		}
	}
	for _, c := range dir.Present {
		if _, ok := ExtractPage(as, c); !ok {
			return fmt.Errorf("ckpt: directory says page %#x+%d is present but it is not",
				c.VMAStart, c.Index)
		}
	}
	for _, c := range dir.Absent {
		if err := as.MarkAbsent(c.VMAStart, c.Index); err != nil {
			return err
		}
	}
	return nil
}

func findRegion(as *proc.AddressSpace, start uint64) *proc.VMA {
	for _, v := range as.VMAs() {
		if v.Start == start {
			return v
		}
	}
	return nil
}

// ExtractPage lends one page's content out of a frozen address space —
// the pull server's read primitive. The slice is the page itself: the
// caller must not write to it or keep it past the freeze (the pull
// server encodes it into its reply at once). The bool is false when the
// coordinate names no resident page: an unknown region, an index past
// the region's end, a page never touched, a placeholder.
func ExtractPage(as *proc.AddressSpace, c PageCoord) ([]byte, bool) {
	v := findRegion(as, c.VMAStart)
	if v == nil {
		return nil, false
	}
	e, ok := v.Entry(c.Index)
	if !ok || e.Absent {
		return nil, false
	}
	return e.Frame, true
}
