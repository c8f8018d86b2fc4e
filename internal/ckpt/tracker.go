package ckpt

import (
	"bytes"
	"encoding/binary"
	"slices"

	"dvemig/internal/proc"
	"dvemig/internal/wire"
)

// MemDelta is one round of incremental address-space updates: geometry
// changes against the tracking list plus the content of pages dirtied
// since the previous round.
type MemDelta struct {
	Round   int
	NewVMAs []VMARange
	Removed []uint64 // start addresses of unmapped regions
	Resized []VMARange
	Pages   []PageImage
	// PageLen, when non-zero, is the length of every page in Pages: a
	// page's Data is then its frame, the page up to the last line a
	// store reached, and the PageLen-len(Data) bytes past it are zero.
	// A tracker's delta sets it to proc.PageSize; a delta decoded or
	// built by hand leaves it zero, and each page is exactly its Data.
	PageLen int
}

// pageLen returns the length of page p of the delta.
func (d *MemDelta) pageLen(p PageImage) int { return max(d.PageLen, len(p.Data)) }

// Empty reports whether the delta carries nothing.
func (d *MemDelta) Empty() bool {
	return len(d.NewVMAs) == 0 && len(d.Removed) == 0 && len(d.Resized) == 0 && len(d.Pages) == 0
}

// PageDataBytes sums the raw page content the delta carries — the
// strategy race's bytes-transferred axis (geometry records and framing
// excluded so pre-copy, post-copy and hybrid compare like for like).
func (d *MemDelta) PageDataBytes() uint64 {
	var n uint64
	for _, p := range d.Pages {
		n += uint64(d.pageLen(p))
	}
	return n
}

// Encode serializes the delta (this is what crosses the network each
// precopy round).
func (d *MemDelta) Encode() []byte { return d.EncodeInto(nil) }

// EncodeInto serializes the delta into buf (reusing its capacity,
// overwriting its content) and returns the encoded bytes. The migration
// calls this with its encode scratch, a buffer on loan from the
// Migrator's free list for the migration's lifetime, so precopy rounds
// stop allocating. The returned bytes are the payload of a chunk stream:
// they must stay untouched until the chunk pump has queued the stream's
// last frame (all of it at the round's instant), and the next round may
// overwrite them only after that.
func (d *MemDelta) EncodeInto(buf []byte) []byte { return d.AppendEncode(buf[:0]) }

// EncodedSize returns the length of the delta's encoding without
// writing it: each page is sized by the same zero/sparse/raw rule
// encodePage applies.
func (d *MemDelta) EncodedSize() int { return d.headerSize() + d.pagesSize(d.Pages) }

// headerSize is the length of the encoding ahead of the page records.
func (d *MemDelta) headerSize() int {
	n := 4 + 4 + 4 + 8*len(d.Removed) + 4 + 4
	for _, v := range d.NewVMAs {
		n += vmaSize(v)
	}
	for _, v := range d.Resized {
		n += vmaSize(v)
	}
	return n
}

// pagesSize is the length of the records of pages, a tail of d.Pages.
func (d *MemDelta) pagesSize(pages []PageImage) int {
	n := 0
	for _, p := range pages {
		n += 16 + encodedPageSize(p.Data, d.pageLen(p))
	}
	return n
}

// AppendEncode appends the delta's encoding to dst (see
// Image.AppendEncode), growing dst at most once, to the exact size of
// what is left to write: a first round's hundreds of kilobytes appended
// to a small buffer would otherwise be reallocated a dozen times on the
// way. Sizing costs a second scan of the pages, so it is done only when
// the next record might not fit in what dst has spare (a record is at
// most its raw form): a warm scratch that holds the delta is written in
// one pass. It grows through the wire pool (wire.Grow): a buffer it
// grows to 64 KiB or more is a pooled one, and dst, when it is one, goes
// back to the pool, so the caller keeps no other reference into dst.
func (d *MemDelta) AppendEncode(dst []byte) []byte {
	b, sized := dst, false
	if cap(b)-len(b) < d.headerSize() {
		b, sized = wire.Grow(b, d.EncodedSize()), true
	}
	b = binary.BigEndian.AppendUint32(b, uint32(d.Round))
	b = binary.BigEndian.AppendUint32(b, uint32(len(d.NewVMAs)))
	for _, v := range d.NewVMAs {
		b = appendVMA(b, v)
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(d.Removed)))
	for _, s := range d.Removed {
		b = binary.BigEndian.AppendUint64(b, s)
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(d.Resized)))
	for _, v := range d.Resized {
		b = appendVMA(b, v)
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(d.Pages)))
	for i, p := range d.Pages {
		n := d.pageLen(p)
		if !sized && cap(b)-len(b) < 16+1+4+n { // coordinates, tag, length, raw bytes
			b, sized = wire.Grow(b, d.pagesSize(d.Pages[i:])), true
		}
		b = binary.BigEndian.AppendUint64(b, p.VMAStart)
		b = binary.BigEndian.AppendUint64(b, p.Index)
		b = encodePage(b, p.Data, n)
	}
	return b
}

// decodeDeltaHeader parses everything in an encoded delta ahead of the
// page records — round, geometry lists, page count — into d, leaving r
// at the first record. Both the materialising decoder and the in-place
// apply start here, so the delta grammar is written once.
func decodeDeltaHeader(r *wire.Reader, d *MemDelta) (npages int) {
	d.Round = int(r.U32())
	n := int(r.U32())
	for i := 0; i < n && r.Err() == nil; i++ {
		d.NewVMAs = append(d.NewVMAs, readVMA(r))
	}
	n = int(r.U32())
	for i := 0; i < n && r.Err() == nil; i++ {
		d.Removed = append(d.Removed, r.U64())
	}
	n = int(r.U32())
	for i := 0; i < n && r.Err() == nil; i++ {
		d.Resized = append(d.Resized, readVMA(r))
	}
	return int(r.U32())
}

// DecodeMemDelta parses an encoded delta, materialising every page's
// full content in freshly allocated buffers.
func DecodeMemDelta(data []byte) (*MemDelta, error) {
	r := wire.NewReader(data)
	d := new(MemDelta)
	n := decodeDeltaHeader(&r, d)
	for i := 0; i < n && r.Err() == nil; i++ {
		d.Pages = append(d.Pages, PageImage{VMAStart: r.U64(), Index: r.U64(), Data: decodePageData(&r)})
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	return d, nil
}

type trackEntry struct {
	start, end uint64
	perms      string
}

// Tracker maintains the linked list of "our own tracking structures that
// store the memory area properties of the last incremental loop" (§V-A).
// Each round it diffs the live vm_area list against the tracking list,
// emits geometry changes, collects dirty pages and clears their bits.
// The zero value is an empty tracker.
type Tracker struct {
	prev  []trackEntry
	round int
	// d is the delta Delta lends; its lists keep their arrays round to
	// round.
	d MemDelta
}

// NewTracker returns an empty tracker; the first Delta call transfers
// the full mapping and all resident pages (the initial precopy transfer
// of "memory mappings" in Fig 3).
func NewTracker() *Tracker { return &Tracker{} }

// poisonLent is the lending contract's tripwire: while set, Delta
// overwrites every page entry it lent last with poisonEntry and builds
// the next round in a fresh list, so a holder that kept the list reads
// index ^0 and 0xDB content. Only the entries are replaced — the frames
// they pointed at are live pages and are never written.
var (
	poisonLent  bool
	poisonEntry PageImage
)

// PoisonLentMemDeltas turns the tripwire on for the rest of the
// process. Test packages call it; the simulation never does.
func PoisonLentMemDeltas() {
	poisonLent = true
	poisonEntry = PageImage{Index: ^uint64(0), Data: bytes.Repeat([]byte{0xDB}, proc.PageSize)}
}

// Round returns how many deltas have been produced.
func (t *Tracker) Round() int { return t.round }

// Delta computes one incremental round against the address space.
//
// The delta is lent, not built: it is the tracker's own, and its lists
// reuse their arrays, so it is valid until the tracker's next call. Page
// content is lent for less: every Pages[i].Data aliases the live page it
// was read from and is valid until the address space is next written;
// it is the page's frame, so it may be shorter than the page (PageLen). A
// caller must finish with the delta (encode it, apply it, or copy what
// it keeps) before the process can run again; the migration engine
// encodes in the same event that computed it.
func (t *Tracker) Delta(as *proc.AddressSpace) *MemDelta {
	t.round++
	d := &t.d
	if poisonLent {
		for i := range d.Pages {
			d.Pages[i] = poisonEntry
		}
		d.Pages = nil
	}
	d.Round, d.PageLen = t.round, proc.PageSize
	d.NewVMAs, d.Removed, d.Resized = d.NewVMAs[:0], d.Removed[:0], d.Resized[:0]
	live := as.VMAs()

	// Diff the live VMA list against the tracking list with one merge
	// walk: both are sorted by start address.
	prev := t.prev
	for _, v := range live {
		for len(prev) > 0 && prev[0].start < v.Start {
			d.Removed = append(d.Removed, prev[0].start)
			prev = prev[1:]
		}
		r := VMARange{Start: v.Start, End: v.End, Perms: v.Perms}
		if len(prev) == 0 || prev[0].start != v.Start {
			d.NewVMAs = append(d.NewVMAs, r)
			continue
		}
		if prev[0].end != v.End || prev[0].perms != v.Perms {
			d.Resized = append(d.Resized, r)
		}
		prev = prev[1:]
	}
	for _, e := range prev {
		d.Removed = append(d.Removed, e.start)
	}

	// Page content: on the first round everything resident, afterwards
	// only pages with the dirty bit set, in (VMA, index) order — one walk
	// of the page table, into a list sized by counting first.
	first := t.round == 1
	n := 0
	for _, v := range live {
		if first {
			n += v.Resident()
		} else {
			n += v.DirtyCount()
		}
	}
	d.Pages = slices.Grow(d.Pages[:0], n)
	for _, v := range live {
		lend := func(e proc.PTE) {
			d.Pages = append(d.Pages, PageImage{VMAStart: v.Start, Index: e.Index, Data: e.Frame})
		}
		if first {
			v.Entries(lend)
		} else {
			v.DirtyEntries(lend)
		}
	}
	as.ClearDirty()

	// Update the tracking list.
	t.prev = t.prev[:0]
	for _, v := range live {
		t.prev = append(t.prev, trackEntry{start: v.Start, end: v.End, perms: v.Perms})
	}
	return d
}

// ApplyDelta replays one round onto the destination's shadow address
// space: geometry first, then page content. A page shorter than the
// delta's PageLen is written, and the rest of the frame it lands in is
// cleared: the page's zero tail, with no frame grown to hold it.
func ApplyDelta(as *proc.AddressSpace, d *MemDelta) error {
	if err := applyGeometry(as, d); err != nil {
		return err
	}
	for _, p := range d.Pages {
		addr := p.VMAStart + p.Index*proc.PageSize
		if err := as.Write(addr, p.Data); err != nil {
			return err
		}
		if len(p.Data) < d.PageLen {
			_, _, page, err := as.PageAt(addr, 0)
			if err != nil {
				return err
			}
			clear(page[min(len(p.Data), len(page)):])
		}
	}
	as.ClearDirty()
	return nil
}

func applyGeometry(as *proc.AddressSpace, d *MemDelta) error {
	for _, s := range d.Removed {
		if err := as.Munmap(s); err != nil {
			return err
		}
	}
	for _, v := range d.NewVMAs {
		if _, err := as.MmapFixed(v.Start, v.End, v.Perms); err != nil {
			return err
		}
	}
	for _, v := range d.Resized {
		if err := as.Resize(v.Start, v.End-v.Start); err != nil {
			return err
		}
	}
	return nil
}

// ApplyEncodedDelta replays one encoded round onto the destination's
// address space without materialising it: the page content is the one
// ApplyDelta(DecodeMemDelta(payload)) leaves, but each page record is
// expanded straight into the frame that will own it. The pages the round
// brings into existence are backed by one slab of the space's
// (AddressSpace.Slab: the page reserve's when a retired space left one
// there), each frame cut to the lines its record reaches; a resident
// page's frame is expanded into in place, regrown only when the record
// reaches past its end. Nothing
// it installs aliases payload, so the caller may reuse the buffer as
// soon as it returns.
//
// The whole payload is validated before as is touched: a truncated or
// malformed payload is an error that leaves as exactly as it was. A
// well-formed payload whose geometry or page addresses do not fit as
// fails part-way like ApplyDelta does; the migration engine discards
// the shadow space on any error.
func ApplyEncodedDelta(as *proc.AddressSpace, payload []byte) error {
	r := wire.NewReader(payload)
	var d MemDelta
	n := decodeDeltaHeader(&r, &d)
	first := r      // the first page record; each pass below starts here
	var rec pageRec // each pass reads every record into this one
	for i := 0; i < n && r.Err() == nil; i++ {
		nextPageRec(&r, &rec)
	}
	if r.Err() != nil {
		return r.Err()
	}
	if err := applyGeometry(as, &d); err != nil {
		return err
	}

	// Size the frames of the records that land on a page not yet
	// resident, each cut to the lines its record reaches. Records only
	// add pages from here on, so the sum can exceed the need (a duplicate
	// record, an odd-sized one faulting its neighbour in) but never fall
	// short of it.
	fresh := 0
	r = first
	for i := 0; i < n; i++ {
		addr := nextPageRec(&r, &rec)
		if !rec.wholePage(addr) {
			continue
		}
		_, _, page, err := as.PageAt(addr, 0)
		if err != nil {
			return err
		}
		if page == nil {
			fresh += proc.FrameLen(rec.end)
		}
	}
	slab := as.Slab(fresh)

	r = first
	for i := 0; i < n; i++ {
		addr := nextPageRec(&r, &rec)
		if !rec.wholePage(addr) {
			// Not a page image: the general write path, as ApplyDelta.
			data := make([]byte, rec.n)
			rec.expand(data, true)
			if err := as.Write(addr, data); err != nil {
				return err
			}
			continue
		}
		v, idx, page, err := as.PageAt(addr, rec.end)
		if err != nil {
			return err
		}
		if page != nil {
			rec.expand(page, false)
			continue
		}
		fl := proc.FrameLen(rec.end)
		page, slab = slab[:fl:fl], slab[fl:]
		rec.expand(page, true)
		v.Install(idx, page)
	}
	as.ClearDirty()
	return nil
}

// nextPageRec parses one page entry of a delta into rec, its
// bounds-checked, unexpanded content record, and returns the address it
// names. The entry's coordinates (region start, page index) are read
// with one bounds check, as readPageRec reads the record's header.
func nextPageRec(r *wire.Reader, rec *pageRec) (addr uint64) {
	if c := r.Bytes(8 + 8); c != nil {
		addr = binary.BigEndian.Uint64(c) + binary.BigEndian.Uint64(c[8:])*proc.PageSize
	}
	readPageRec(r, rec)
	return addr
}

// wholePage reports whether the record is the image of exactly the page
// at addr, which ApplyEncodedDelta can expand in place.
func (rec *pageRec) wholePage(addr uint64) bool {
	return rec.n == proc.PageSize && addr%proc.PageSize == 0
}
