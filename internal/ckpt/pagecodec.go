package ckpt

import (
	"encoding/binary"
	"errors"
	"math/bits"

	"dvemig/internal/proc"
	"dvemig/internal/wire"
)

// Page-content codec: the per-page encoding the checkpoint pipeline
// ships. A page is encoded as a one-byte tag plus a tag-specific body:
//
//	raw    — u32 length + the bytes verbatim (the historical format).
//	zero   — u32 length only: the page is all zeros, nothing crosses
//	         the wire (zero-page elision; zone-server working sets are
//	         mostly untouched zero pages).
//	sparse — u32 raw length, u16 segment count, then per segment
//	         {u16 offset, u16 length, bytes}: a delta against the zero
//	         page carrying only the non-zero runs. Chosen only when it
//	         is strictly smaller than raw, so pathological content
//	         costs at most one tag byte over the historical format.
//
// The encoder reads a page as a frame holds it: its content up to some
// length, and zeros from there to the page's length, which it is told.
// DecodeMemDelta and DecodeImage materialize the full raw page, so what
// is downstream of them (ApplyDelta, restore) is format-agnostic; the
// in-place apply (ApplyEncodedDelta) expands a record into a frame that
// ends where the record's last non-zero segment does.

const (
	pageEncRaw byte = iota
	pageEncZero
	pageEncSparse
)

// segHdrBytes is the wire cost of one sparse segment header (offset +
// length); zero gaps shorter than this are cheaper to ship inline than
// to split around.
const segHdrBytes = 4

// Word-at-a-time byte classification over little-endian 64-bit loads
// (byte k of the slice is bits 8k..8k+7 of the word, so the lowest set
// marker bit names the first matching byte).
const (
	loBytes = 0x0101010101010101
	hiBytes = 0x8080808080808080
)

// zeroByteMarks sets the high bit of every byte lane of w that is zero.
// Lanes above the first zero lane may be marked falsely (the borrow of
// the subtraction); the lowest mark is always exact, and no mark at all
// means no zero byte.
func zeroByteMarks(w uint64) uint64 { return (w - loBytes) &^ w & hiBytes }

// skipZeros returns the index of the first non-zero byte at or after i,
// or len(data). Zeros are what a page is mostly made of, so they go by
// 32 bytes to a branch — four loads OR-ed — and the word loop only finds
// the edge inside the block that stopped it.
func skipZeros(data []byte, i int) int {
	for ; i+32 <= len(data); i += 32 {
		b := data[i : i+32 : i+32]
		if binary.LittleEndian.Uint64(b)|binary.LittleEndian.Uint64(b[8:])|
			binary.LittleEndian.Uint64(b[16:])|binary.LittleEndian.Uint64(b[24:]) != 0 {
			break
		}
	}
	for ; i+8 <= len(data); i += 8 {
		if w := binary.LittleEndian.Uint64(data[i:]); w != 0 {
			return i + bits.TrailingZeros64(w)/8
		}
	}
	for i < len(data) && data[i] == 0 {
		i++
	}
	return i
}

// skipNonZeros returns the index of the first zero byte at or after i,
// or len(data).
func skipNonZeros(data []byte, i int) int {
	for ; i+8 <= len(data); i += 8 {
		if m := zeroByteMarks(binary.LittleEndian.Uint64(data[i:])); m != 0 {
			return i + bits.TrailingZeros64(m)/8
		}
	}
	for i < len(data) && data[i] != 0 {
		i++
	}
	return i
}

// nextSparseRun returns the next non-zero run at or after i, with zero
// gaps shorter than a segment header merged in. Returns (-1, -1) when
// only zeros remain. Every byte is classified once: zeros and non-zeros
// are skipped a word at a time, and the gap probe after a run looks at
// no more than segHdrBytes bytes (a longer gap ends the run whatever
// follows it; the next call skips it wholesale).
func nextSparseRun(data []byte, i int) (start, end int) {
	start = skipZeros(data, i)
	if start >= len(data) {
		return -1, -1
	}
	i = start
	for {
		end = skipNonZeros(data, i)
		// data[end] is zero or past the end. The run continues only if a
		// non-zero byte follows fewer than segHdrBytes zeros.
		lim := min(end+segHdrBytes, len(data))
		for i = end + 1; i < lim && data[i] == 0; i++ {
		}
		if i >= lim {
			return start, end
		}
	}
}

// encodePage appends the content of one n-byte page to b in the
// cheapest representation: data holds the page up to len(data) <= n, and
// the bytes past it are zero. n is at most proc.PageSize — every caller
// encodes a page of an address space — so the u16 segment offsets,
// lengths and count cannot overflow. It reads data once and allocates
// nothing beyond b's growth: the sparse record is written optimistically
// (its segment count patched at the end) and b is truncated back to emit
// zero or raw when that turns out cheaper. The sparse scan stops at
// data's end (the zero tail adds no run, and a run's merge probe finds
// zeros past data's end either way); a raw record appends the zero tail.
// Sparse wins only when strictly smaller than raw.
func encodePage(b, data []byte, n int) []byte {
	mark := len(b)
	raw := func() []byte {
		b = append(b[:mark], pageEncRaw)
		b = binary.BigEndian.AppendUint32(b, uint32(n))
		b = append(b, data...)
		return append(b, make([]byte, n-len(data))...)
	}
	b = append(b, pageEncSparse)
	b = binary.BigEndian.AppendUint32(b, uint32(n))
	body := len(b) // the sparse size the raw rule compares starts here
	b = append(b, 0, 0)
	nseg := 0
	for s, e := nextSparseRun(data, 0); s >= 0; s, e = nextSparseRun(data, e) {
		if len(b)-body+segHdrBytes+(e-s) >= n {
			return raw()
		}
		nseg++
		b = binary.BigEndian.AppendUint16(b, uint16(s))
		b = binary.BigEndian.AppendUint16(b, uint16(e-s))
		b = append(b, data[s:e]...)
	}
	if nseg == 0 {
		b = append(b[:mark], pageEncZero)
		return binary.BigEndian.AppendUint32(b, uint32(n))
	}
	binary.BigEndian.PutUint16(b[body:], uint16(nseg))
	return b
}

// pageRec is one page record parsed and bounds-checked but not yet
// expanded: a view into the payload it was read from.
type pageRec struct {
	tag  byte
	n    int    // length of the page content the record expands to
	end  int    // one past the last byte a segment writes (n for raw, 0 for zero)
	body []byte // raw: the n content bytes; sparse: the segment list
}

// errCorruptPage is the cause for a page record that is complete but
// cannot be expanded: an unknown tag, a length past proc.PageSize, a
// segment past the page's end.
var errCorruptPage = errors.New("ckpt: corrupt page record")

// readPageRec parses one encodePage record and checks every bound the
// expansion relies on — claimed length, segment extents, body within
// the payload — so expand cannot fail and a caller can validate a whole
// payload before writing anything. No encoder writes a page longer than
// proc.PageSize, so no record may claim one: the decoder is a fuzz
// surface and must not be talked into allocations its input does not
// pay for.
func readPageRec(r *wire.Reader) pageRec {
	rec := pageRec{tag: r.U8()}
	rec.n = int(r.U32())
	if rec.n > proc.PageSize {
		r.Fail(errCorruptPage)
	}
	switch rec.tag {
	case pageEncRaw:
		rec.body = r.Bytes(rec.n)
		rec.end = rec.n
	case pageEncZero:
	case pageEncSparse:
		nseg := int(r.U16())
		segs, start := r.Rest(), r.Off()
		for i := 0; i < nseg && r.Err() == nil; i++ {
			off, l := int(r.U16()), int(r.U16())
			if off+l > rec.n {
				r.Fail(errCorruptPage)
			}
			r.Skip(l)
			rec.end = max(rec.end, off+l)
		}
		if r.Err() == nil {
			rec.body = segs[:r.Off()-start]
		}
	default:
		r.Fail(errCorruptPage)
	}
	return rec
}

// expand writes the record's content into dst, which must be at least
// rec.end and at most rec.n bytes long: the content past dst's end is
// zero. zeroed says dst is known to be all zeros already (a fresh
// allocation); otherwise a zero or sparse record clears it first. The
// bytes are copied: dst never aliases the payload.
func (rec pageRec) expand(dst []byte, zeroed bool) {
	if rec.tag == pageEncRaw {
		copy(dst, rec.body)
		return
	}
	if !zeroed {
		clear(dst)
	}
	for b := rec.body; len(b) > 0; { // a zero record has no body
		off := int(binary.BigEndian.Uint16(b))
		l := int(binary.BigEndian.Uint16(b[2:]))
		copy(dst[off:off+l], b[segHdrBytes:segHdrBytes+l])
		b = b[segHdrBytes+l:]
	}
}

// decodePageData parses one encodePage record, returning the full raw
// page content (freshly allocated — it never aliases the input).
func decodePageData(r *wire.Reader) []byte {
	rec := readPageRec(r)
	if r.Err() != nil {
		return nil
	}
	out := make([]byte, rec.n)
	rec.expand(out, true)
	return out
}
