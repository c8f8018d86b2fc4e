// Package wire reads the big-endian frames the daemons exchange: dirty
// page deltas, freeze images and socket sections, translation requests,
// conductor and control-plane messages. A Reader is one bounds-checked
// cursor over a frame. The first read that runs past the end, or the
// first Fail, poisons it: every later read returns zero and Err reports
// that first cause, so a decoder reads all its fields and checks once.
//
// Spans alias the frame; a caller that keeps one past the frame copies
// it. Writers have no counterpart here: they append with encoding/binary
// (binary.BigEndian.AppendUint32 and friends). The buffers of 64 KiB and
// more that a migd connection sends, receives and reassembles frames in
// come from this package's process-wide pool (Take, Give, Grow).
package wire

import (
	"encoding/binary"
	"errors"
)

// ErrTruncated is the cause a Reader records for a read past the end of
// its frame.
var ErrTruncated = errors.New("wire: truncated frame")

// Reader is a cursor over one frame. Keep it a local value (NewReader
// returns one, and a copy is a saved position): nothing in it escapes,
// so decoding allocates only what the decoder builds.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a reader at the start of b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err returns the reader's first cause, or nil.
func (r *Reader) Err() error { return r.err }

// Off returns how many bytes have been read.
func (r *Reader) Off() int { return r.off }

// Rest returns the bytes not yet read, without reading them; nil once
// the reader has failed.
func (r *Reader) Rest() []byte {
	if r.err != nil {
		return nil
	}
	return r.b[r.off:]
}

// Fail records err as the reader's cause unless it already has one.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// short reports whether fewer than n bytes are left to read, or the
// reader has already failed. It only tests: each read fails the reader in
// its own branch, so the compiled test is a plain conditional jump. A
// helper that both failed the reader and returned a bool left a
// materialised result at every field and made section decoding about 30 %
// slower.
func (r *Reader) short(n int) bool { return r.err != nil || n < 0 || r.off+n > len(r.b) }

// Skip steps over n bytes.
func (r *Reader) Skip(n int) {
	if r.short(n) {
		r.Fail(ErrTruncated)
		return
	}
	r.off += n
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	if r.short(1) {
		r.Fail(ErrTruncated)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	if r.short(2) {
		r.Fail(ErrTruncated)
		return 0
	}
	v := binary.BigEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	if r.short(4) {
		r.Fail(ErrTruncated)
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	if r.short(8) {
		r.Fail(ErrTruncated)
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// Bytes reads the next n bytes. The result aliases the frame, capped at
// its length so an append to it cannot write into the frame; nil once
// the reader has failed.
func (r *Reader) Bytes(n int) []byte {
	if r.short(n) {
		r.Fail(ErrTruncated)
		return nil
	}
	v := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}

// Span reads a u32 length, then that many bytes as Bytes does.
func (r *Reader) Span() []byte { return r.Bytes(int(r.U32())) }
