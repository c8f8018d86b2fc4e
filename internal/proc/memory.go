// Package proc models the operating-system substrate the migration
// mechanism runs on: cluster nodes, processes with threads, signals and
// file-descriptor tables, and virtual address spaces made of vm_area
// regions whose pages carry the dirty bit the precopy engine tracks.
package proc

import (
	"fmt"
	"slices"
	"sort"
)

// PageSize is the virtual memory page size.
const PageSize = 4096

// Page is one resident page: its data and the page-table dirty bit. The
// paper's implementation tracks dirtiness via the PTE dirty bit with the
// swap facility relaxed (§V-A); our pages are never swapped either.
// Absent marks a post-copy placeholder: the page's content still lives
// on the migration source, and any access faults (ErrPageAbsent) until
// FillPage delivers the data.
type Page struct {
	Data   []byte
	Dirty  bool
	Absent bool
}

// VMA is a continuous mapped memory area, the analogue of Linux
// vm_area_struct. Pages are materialized on first touch.
type VMA struct {
	Start uint64 // inclusive, page aligned
	End   uint64 // exclusive, page aligned
	Perms string // e.g. "rw-", informational
	Pages map[uint64]*Page
}

// Len returns the region size in bytes.
func (v *VMA) Len() uint64 { return v.End - v.Start }

// Resident returns the number of materialized pages.
func (v *VMA) Resident() int { return len(v.Pages) }

// AddressSpace is an ordered set of non-overlapping VMAs, the analogue of
// the mm_struct VMA list the tracking mechanism of §V-A diffs against.
type AddressSpace struct {
	vmas    []*VMA // sorted by Start
	nextMap uint64 // bump allocator for anonymous mappings

	// OnMissing observes every access that lands on an absent page (a
	// post-copy placeholder whose content is still on the migration
	// source). The access itself fails with ErrPageAbsent and the state
	// of the space is untouched; the hook is where the demand-pull
	// client hangs.
	OnMissing func(vmaStart, pageIndex uint64)
}

// NewAddressSpace creates an empty address space with mappings starting
// at a conventional base.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{nextMap: 0x4000_0000}
}

// VMAs returns the live region list in address order. Callers must not
// mutate it.
func (as *AddressSpace) VMAs() []*VMA { return as.vmas }

// Mmap maps length bytes at a chosen address and returns the region.
func (as *AddressSpace) Mmap(length uint64, perms string) *VMA {
	if length == 0 {
		length = PageSize
	}
	length = (length + PageSize - 1) / PageSize * PageSize
	v := &VMA{Start: as.nextMap, End: as.nextMap + length, Perms: perms, Pages: make(map[uint64]*Page)}
	as.nextMap += length + PageSize // guard page gap
	as.vmas = append(as.vmas, v)
	sort.Slice(as.vmas, func(i, j int) bool { return as.vmas[i].Start < as.vmas[j].Start })
	return v
}

// MmapFixed maps a region at a specific address (restart path).
func (as *AddressSpace) MmapFixed(start, end uint64, perms string) (*VMA, error) {
	if start%PageSize != 0 || end%PageSize != 0 || end <= start {
		return nil, fmt.Errorf("proc: bad fixed mapping [%#x,%#x)", start, end)
	}
	for _, v := range as.vmas {
		if start < v.End && v.Start < end {
			return nil, fmt.Errorf("proc: mapping [%#x,%#x) overlaps [%#x,%#x)", start, end, v.Start, v.End)
		}
	}
	v := &VMA{Start: start, End: end, Perms: perms, Pages: make(map[uint64]*Page)}
	as.vmas = append(as.vmas, v)
	sort.Slice(as.vmas, func(i, j int) bool { return as.vmas[i].Start < as.vmas[j].Start })
	if end+PageSize > as.nextMap {
		as.nextMap = end + PageSize
	}
	return v, nil
}

// Munmap removes the region starting at start.
func (as *AddressSpace) Munmap(start uint64) error {
	for i, v := range as.vmas {
		if v.Start == start {
			as.vmas = append(as.vmas[:i], as.vmas[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("proc: munmap of unmapped address %#x", start)
}

// Resize grows or shrinks a region in place (mremap-style modification;
// one of the three kinds of address-space change the tracking list must
// reflect).
func (as *AddressSpace) Resize(start, newLen uint64) error {
	newLen = (newLen + PageSize - 1) / PageSize * PageSize
	for i, v := range as.vmas {
		if v.Start != start {
			continue
		}
		newEnd := start + newLen
		if i+1 < len(as.vmas) && newEnd > as.vmas[i+1].Start {
			return fmt.Errorf("proc: resize collides with next mapping")
		}
		if newEnd < v.End {
			for idx := range v.Pages {
				if idx*PageSize >= newEnd-v.Start {
					delete(v.Pages, idx)
				}
			}
		}
		v.End = newEnd
		return nil
	}
	return fmt.Errorf("proc: resize of unmapped address %#x", start)
}

func (as *AddressSpace) findVMA(addr uint64) *VMA {
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].End > addr })
	if i < len(as.vmas) && as.vmas[i].Start <= addr {
		return as.vmas[i]
	}
	return nil
}

// PageAt resolves addr to its region and page index, and to the page
// resident there (nil when the page was never touched). It fails the
// way an access would: a segmentation fault outside every mapping, the
// post-copy fault (OnMissing fired) on an absent placeholder. The
// checkpoint restore path uses it to write arriving page content
// straight into place.
func (as *AddressSpace) PageAt(addr uint64) (v *VMA, idx uint64, p *Page, err error) {
	v = as.findVMA(addr)
	if v == nil {
		return nil, 0, nil, fmt.Errorf("proc: segmentation fault writing %#x", addr)
	}
	idx = (addr - v.Start) / PageSize
	p = v.Pages[idx]
	if p != nil && p.Absent {
		return v, idx, p, as.missing(v, idx)
	}
	return v, idx, p, nil
}

// ErrPageAbsent is the fault an access to a post-copy placeholder page
// raises: the content has not arrived from the migration source yet.
var ErrPageAbsent = fmt.Errorf("proc: page not resident (post-copy fault)")

// missing fires the demand-fault hook and returns the canonical fault.
func (as *AddressSpace) missing(v *VMA, idx uint64) error {
	if as.OnMissing != nil {
		as.OnMissing(v.Start, idx)
	}
	return ErrPageAbsent
}

// Write stores data at addr, faulting pages in and setting dirty bits.
// Writes that land on an absent page fault (fire OnMissing, return
// ErrPageAbsent) without storing anything.
func (as *AddressSpace) Write(addr uint64, data []byte) error {
	for len(data) > 0 {
		v, idx, p, err := as.PageAt(addr)
		if err != nil {
			return err
		}
		if p == nil {
			p = &Page{Data: make([]byte, PageSize)}
			v.Pages[idx] = p
		}
		off := addr % PageSize
		n := copy(p.Data[off:], data)
		p.Dirty = true
		data = data[n:]
		addr += uint64(n)
	}
	return nil
}

// Read copies length bytes starting at addr. Reads that land on an
// absent page fault like writes do.
func (as *AddressSpace) Read(addr uint64, length int) ([]byte, error) {
	out := make([]byte, 0, length)
	for length > 0 {
		v := as.findVMA(addr)
		if v == nil {
			return nil, fmt.Errorf("proc: segmentation fault reading %#x", addr)
		}
		off := addr % PageSize
		n := PageSize - int(off)
		if n > length {
			n = length
		}
		idx := (addr - v.Start) / PageSize
		if p := v.Pages[idx]; p != nil {
			if p.Absent {
				return nil, as.missing(v, idx)
			}
			out = append(out, p.Data[off:int(off)+n]...)
		} else {
			out = append(out, make([]byte, n)...) // unfaulted zero page
		}
		length -= n
		addr += uint64(n)
	}
	return out, nil
}

// Touch dirties a single page (the workload generator's write primitive).
func (as *AddressSpace) Touch(addr uint64) error {
	v := as.findVMA(addr)
	if v == nil {
		return fmt.Errorf("proc: segmentation fault touching %#x", addr)
	}
	idx := (addr - v.Start) / PageSize
	p := v.Pages[idx]
	if p == nil {
		p = &Page{Data: make([]byte, PageSize)}
		v.Pages[idx] = p
	} else if p.Absent {
		return as.missing(v, idx)
	}
	p.Dirty = true
	p.Data[addr%PageSize]++
	return nil
}

// MarkAbsent installs a post-copy placeholder: the page is known to
// exist (it was resident on the source at freeze time) but its content
// has not been shipped. Any access faults until FillPage arrives.
func (as *AddressSpace) MarkAbsent(vmaStart, pageIndex uint64) error {
	v := as.findVMA(vmaStart)
	if v == nil || v.Start != vmaStart {
		return fmt.Errorf("proc: mark-absent on unmapped region %#x", vmaStart)
	}
	v.Pages[pageIndex] = &Page{Absent: true}
	return nil
}

// FillPage delivers a pulled (or pushed) page's content, clearing the
// absent mark. The fill does not set the dirty bit: arriving content is
// clean by definition (it is the source's authoritative copy). Filling
// a page that is not absent is rejected so the exactly-once shipping
// property is checkable at the memory layer.
func (as *AddressSpace) FillPage(vmaStart, pageIndex uint64, data []byte) error {
	v := as.findVMA(vmaStart)
	if v == nil || v.Start != vmaStart {
		return fmt.Errorf("proc: fill of unmapped region %#x", vmaStart)
	}
	p := v.Pages[pageIndex]
	if p == nil || !p.Absent {
		return fmt.Errorf("proc: duplicate fill of resident page %#x+%d", vmaStart, pageIndex)
	}
	p.Data = make([]byte, PageSize)
	copy(p.Data, data)
	p.Absent = false
	p.Dirty = false
	return nil
}

// AbsentPages lists the remaining placeholders in canonical (VMA,
// index) order — the prefetch sweep's work list.
func (as *AddressSpace) AbsentPages() []DirtyRef {
	return as.pagesWhere(func(p *Page) bool { return p.Absent })
}

// pagesWhere lists the pages matching keep in canonical (VMA, index)
// order.
func (as *AddressSpace) pagesWhere(keep func(*Page) bool) []DirtyRef {
	var out []DirtyRef
	var idxs []uint64
	for _, v := range as.vmas {
		idxs = idxs[:0]
		for idx, p := range v.Pages {
			if keep(p) {
				idxs = append(idxs, idx)
			}
		}
		slices.Sort(idxs)
		for _, idx := range idxs {
			out = append(out, DirtyRef{VMA: v, PageIndex: idx})
		}
	}
	return out
}

// AbsentCount counts the remaining placeholders.
func (as *AddressSpace) AbsentCount() int {
	n := 0
	for _, v := range as.vmas {
		for _, p := range v.Pages {
			if p.Absent {
				n++
			}
		}
	}
	return n
}

// DirtyPages returns (vmaStart, pageIndex) pairs of every dirty page.
func (as *AddressSpace) DirtyPages() []DirtyRef {
	return as.pagesWhere(func(p *Page) bool { return p.Dirty })
}

// DirtyRef names one dirty page.
type DirtyRef struct {
	VMA       *VMA
	PageIndex uint64
}

// Addr returns the page's virtual address.
func (d DirtyRef) Addr() uint64 { return d.VMA.Start + d.PageIndex*PageSize }

// ClearDirty resets all dirty bits (done after each precopy transfer
// round, like clearing PTE dirty bits).
func (as *AddressSpace) ClearDirty() {
	for _, v := range as.vmas {
		for _, p := range v.Pages {
			p.Dirty = false
		}
	}
}

// ResidentBytes sums materialized page bytes across all regions.
func (as *AddressSpace) ResidentBytes() uint64 {
	var n uint64
	for _, v := range as.vmas {
		n += uint64(len(v.Pages)) * PageSize
	}
	return n
}

// MappedBytes sums region sizes.
func (as *AddressSpace) MappedBytes() uint64 {
	var n uint64
	for _, v := range as.vmas {
		n += v.Len()
	}
	return n
}
