package ckpt

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"dvemig/internal/proc"
	"dvemig/internal/wire"
	"dvemig/internal/wire/wiretest"
)

// --- reference page-record reader ------------------------------------------
//
// refReadPageRec and refNextPageRec are the field-by-field reader the
// package shipped before readPageRec came to read each fixed header with
// one bounds check and fill its record in place, moved here verbatim but
// for their names. The grammar and every check are meant to be
// unchanged, so the two must agree on every input.

func refReadPageRec(r *wire.Reader) pageRec {
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

func refNextPageRec(r *wire.Reader) (addr uint64, rec pageRec) {
	addr = r.U64()
	addr += r.U64() * proc.PageSize
	return addr, refReadPageRec(r)
}

// errClass names the cause a reader failed with: the part of a failed
// read its callers see (DecodeMemDelta and DecodeImage return it).
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, wire.ErrTruncated):
		return "truncated"
	case errors.Is(err, errCorruptPage):
		return "corrupt"
	}
	return fmt.Sprintf("other (%v)", err)
}

// sameRead fails t unless the reference and the reader under test, each
// having just read one record from the same position, agree. A read that
// fails is compared by its cause alone: the record and position a failed
// reader leaves are unspecified (every caller drops them), and the
// header-at-once reader stops before the header it cannot read whole
// where the reference had read its first fields.
func sameRead(t *testing.T, what string, ref, got *wire.Reader, want, rec *pageRec) bool {
	t.Helper()
	if errClass(ref.Err()) != errClass(got.Err()) {
		t.Fatalf("%s: reference %s, reader %s", what, errClass(ref.Err()), errClass(got.Err()))
	}
	if ref.Err() != nil {
		return false
	}
	if want.tag != rec.tag || want.n != rec.n || want.end != rec.end || ref.Off() != got.Off() {
		t.Fatalf("%s: reference tag %d n %d end %d at offset %d, reader tag %d n %d end %d at offset %d",
			what, want.tag, want.n, want.end, ref.Off(), rec.tag, rec.n, rec.end, got.Off())
	}
	if !bytes.Equal(want.body, rec.body) || len(want.body) > 0 && &want.body[0] != &rec.body[0] {
		t.Fatalf("%s: bodies differ: reference %d bytes, reader %d", what, len(want.body), len(rec.body))
	}
	return true
}

// sameReaders reads b both ways, as a run of bare page records and as a
// memory delta (header, then page entries), and fails t on the first
// read where the two readers differ.
func sameReaders(t *testing.T, what string, b []byte) {
	t.Helper()
	var rec pageRec
	ref, got := wire.NewReader(b), wire.NewReader(b)
	for i := 0; len(got.Rest()) > 0; i++ {
		want := refReadPageRec(&ref)
		readPageRec(&got, &rec)
		if !sameRead(t, fmt.Sprintf("%s, record %d", what, i), &ref, &got, &want, &rec) {
			break
		}
	}

	ref, got = wire.NewReader(b), wire.NewReader(b)
	var d MemDelta
	n := decodeDeltaHeader(&ref, &d)
	decodeDeltaHeader(&got, &d)
	for i := 0; i < n && ref.Err() == nil; i++ {
		wantAddr, want := refNextPageRec(&ref)
		addr := nextPageRec(&got, &rec)
		if sameRead(t, fmt.Sprintf("%s, delta entry %d", what, i), &ref, &got, &want, &rec) && wantAddr != addr {
			t.Fatalf("%s, delta entry %d: reference address %#x, reader %#x", what, i, wantAddr, addr)
		}
	}
	if errClass(ref.Err()) != errClass(got.Err()) {
		t.Fatalf("%s, delta: reference %s, reader %s", what, errClass(ref.Err()), errClass(got.Err()))
	}
}

// TestPageRecReaderMatchesReference: the page-record reader agrees with
// the field-by-field reference — same tag, length, extent, body, bytes
// consumed and cause — on every committed entry of the three fuzz
// targets whose inputs hold page records, on every truncation of
// hostileFixture's delta and on every single-byte flip of it.
func TestPageRecReaderMatchesReference(t *testing.T) {
	cases := 0
	for _, target := range []string{"FuzzPageCodec", "FuzzApplyEncodedDelta", "FuzzApplyPageDir"} {
		entries := wiretest.Corpus(t, target)
		if len(entries) == 0 {
			t.Fatalf("no committed %s entry", target)
		}
		for i, args := range entries {
			sameReaders(t, fmt.Sprintf("%s entry %d", target, i), args[0].([]byte))
			cases++
		}
	}
	_, payload := hostileFixture(t)
	for n := 0; n <= len(payload); n++ {
		sameReaders(t, fmt.Sprintf("fixture truncated to %d bytes", n), payload[:n])
		cases++
	}
	bad := make([]byte, len(payload))
	for i := range payload {
		for _, flip := range []byte{0x01, 0x80, 0xFF} {
			copy(bad, payload)
			bad[i] ^= flip
			sameReaders(t, fmt.Sprintf("fixture byte %d ^ %#x", i, flip), bad)
			cases++
		}
	}
	t.Logf("%d inputs read both ways", cases)
}
