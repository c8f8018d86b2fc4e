package ckpt

import (
	"bytes"
	"encoding/binary"
	"testing"

	"dvemig/internal/proc"
	"dvemig/internal/wire"
)

// rtPage encodes data and decodes it back, asserting byte identity.
func rtPage(t *testing.T, data []byte) []byte {
	t.Helper()
	enc := encodePage(nil, data, len(data))
	r := wire.NewReader(enc)
	out := decodePageData(&r)
	if r.Err() != nil {
		t.Fatalf("decode failed: %v (input len %d)", r.Err(), len(data))
	}
	if r.Off() != len(enc) {
		t.Fatalf("decoder consumed %d of %d bytes", r.Off(), len(enc))
	}
	if !bytes.Equal(out, data) {
		t.Fatalf("round trip mismatch: %d bytes in, %d out", len(data), len(out))
	}
	return enc
}

func TestPageCodecRoundTrip(t *testing.T) {
	page := func(fill func(b []byte)) []byte {
		b := make([]byte, 4096)
		fill(b)
		return b
	}
	cases := map[string][]byte{
		"empty":      {},
		"zero":       page(func(b []byte) {}),
		"one-byte":   page(func(b []byte) { b[17] = 0xA7 }),
		"last-byte":  page(func(b []byte) { b[4095] = 1 }),
		"first-byte": page(func(b []byte) { b[0] = 9 }),
		"two-runs":   page(func(b []byte) { b[10] = 1; b[4000] = 2 }),
		"small-gap":  page(func(b []byte) { b[10] = 1; b[12] = 2 }), // merged run
		"dense": page(func(b []byte) {
			for i := range b {
				b[i] = byte(i%255) + 1
			}
		}),
		"half": page(func(b []byte) {
			for i := 0; i < 2048; i++ {
				b[i] = 0xEE
			}
		}),
		"alternating": page(func(b []byte) {
			for i := 0; i < len(b); i += 2 {
				b[i] = 1
			}
		}),
		"odd-size": []byte{0, 0, 0, 5, 0},
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			enc := rtPage(t, data)
			if len(data) >= 64 && isAllZero(data) && len(enc) > 16 {
				t.Fatalf("zero page encoded to %d bytes", len(enc))
			}
		})
	}
}

func isAllZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// TestPageCodecElision pins the size wins the pipeline depends on: zero
// pages vanish, near-zero pages shrink two orders of magnitude, and
// dense pages pay at most the one-byte tag over the raw format.
func TestPageCodecElision(t *testing.T) {
	enc := func(data []byte) int { return len(encodePage(nil, data, len(data))) }
	zero := make([]byte, 4096)
	if n := enc(zero); n > 8 {
		t.Fatalf("zero page: %d bytes, want <=8", n)
	}
	near := make([]byte, 4096)
	near[100] = 0xCD
	if n := enc(near); n > 32 {
		t.Fatalf("near-zero page: %d bytes, want <=32", n)
	}
	dense := make([]byte, 4096)
	for i := range dense {
		dense[i] = byte(i%255) + 1
	}
	if n := enc(dense); n > 4096+8 {
		t.Fatalf("dense page: %d bytes, want <=%d", n, 4096+8)
	}
}

// TestPageCodecRandomized round-trips pseudo-random pages across a
// density sweep (an xorshift generator keeps it deterministic).
func TestPageCodecRandomized(t *testing.T) {
	x := uint64(0x2545F4914F6CDD1D)
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for trial := 0; trial < 200; trial++ {
		size := int(rnd() % (proc.PageSize + 1))
		density := rnd() % 100
		data := make([]byte, size)
		for i := range data {
			if rnd()%100 < density {
				data[i] = byte(rnd())
			}
		}
		rtPage(t, data)
	}
}

// FuzzPageCodec: arbitrary bytes through the decoder must never panic,
// whatever decodes must re-encode/decode to the same content, and the
// same bytes taken as page content must scan and encode exactly as the
// reference codec does.
func FuzzPageCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{pageEncZero, 0, 0, 16, 0})
	f.Add([]byte{pageEncSparse, 0, 0, 0, 8, 0, 1, 0, 2, 0xAB, 0xCD})
	f.Add([]byte{pageEncRaw, 0, 0, 0, 2, 7, 7})
	f.Add([]byte{pageEncSparse, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) <= proc.PageSize { // as a page; any length as a record
			sameCodec(t, "fuzz", b)
		}
		r := wire.NewReader(b)
		out := decodePageData(&r)
		if r.Err() != nil {
			return
		}
		// Whatever decoded must survive a canonical round trip.
		r2 := wire.NewReader(encodePage(nil, out, len(out)))
		out2 := decodePageData(&r2)
		if r2.Err() != nil {
			t.Fatalf("re-decode failed: %v", r2.Err())
		}
		if !bytes.Equal(out, out2) {
			t.Fatal("canonical round trip changed content")
		}
	})
}

// --- reference codec ------------------------------------------------------
//
// refNextSparseRun and refEncodePage are the byte-at-a-time scanner and
// the two-pass encoder the package shipped before the word-at-a-time,
// one-pass versions, moved here verbatim but for the raw branch for
// pages of 64 KiB and more, which no page reaches (a page is at most
// proc.PageSize). Encoded size sets simulated transfer time, so the fast
// codec must reproduce them byte for byte.

func refNextSparseRun(data []byte, i int) (start, end int) {
	for i < len(data) && data[i] == 0 {
		i++
	}
	if i >= len(data) {
		return -1, -1
	}
	start = i
	end = i
	for i < len(data) {
		if data[i] != 0 {
			i++
			end = i
			continue
		}
		j := i
		for j < len(data) && data[j] == 0 {
			j++
		}
		if j < len(data) && j-i < segHdrBytes {
			i = j
			continue
		}
		break
	}
	return start, end
}

func refEncodePage(b, data []byte) []byte {
	be := binary.BigEndian
	raw := func() []byte {
		b = be.AppendUint32(append(b, pageEncRaw), uint32(len(data)))
		return append(b, data...)
	}
	nseg, sparseSize := 0, 2
	for s, e := refNextSparseRun(data, 0); s >= 0; s, e = refNextSparseRun(data, e) {
		nseg++
		sparseSize += segHdrBytes + (e - s)
	}
	if nseg == 0 {
		return be.AppendUint32(append(b, pageEncZero), uint32(len(data)))
	}
	if nseg >= 1<<16 || sparseSize >= len(data) {
		return raw()
	}
	b = be.AppendUint32(append(b, pageEncSparse), uint32(len(data)))
	b = be.AppendUint16(b, uint16(nseg))
	for s, e := refNextSparseRun(data, 0); s >= 0; s, e = refNextSparseRun(data, e) {
		b = be.AppendUint16(b, uint16(s))
		b = be.AppendUint16(b, uint16(e-s))
		b = append(b, data[s:e]...)
	}
	return b
}

// sameFirstRun compares the scanner with the reference for one call.
func sameFirstRun(t *testing.T, what string, data []byte, from int) {
	t.Helper()
	ws, we := refNextSparseRun(data, from)
	gs, ge := nextSparseRun(data, from)
	if gs != ws || ge != we {
		t.Fatalf("%s: len %d from %d: run [%d,%d), reference [%d,%d)", what, len(data), from, gs, ge, ws, we)
	}
}

// sameCodec compares, against the reference, the whole run sequence
// (every later call starts where a run ended), the first run from each
// start offset 1-16, and the encoding.
func sameCodec(t *testing.T, what string, data []byte) {
	t.Helper()
	for i := 0; i >= 0; _, i = refNextSparseRun(data, i) {
		sameFirstRun(t, what, data, i)
	}
	for from := 1; from <= 16 && from <= len(data); from++ {
		sameFirstRun(t, what, data, from)
	}
	// The encoder appends; it must not disturb what is there.
	got := encodePage([]byte("prefix"), data, len(data))
	want := refEncodePage([]byte("prefix"), data)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: len %d: encoding differs from the reference (%d bytes, tag %d; reference %d bytes, tag %d)",
			what, len(data), len(got), got[6], len(want), want[6])
	}
	// The same page as a frame holds it — up to its last non-zero line,
	// the zero tail implied by the page length — encodes to the same
	// bytes.
	end := len(bytes.TrimRight(data, "\x00"))
	frame := data[:min(len(data), (end+proc.LineSize-1)/proc.LineSize*proc.LineSize)]
	got = encodePage(append(got[:0], "prefix"...), frame, len(data))
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: len %d: its %d-byte frame encodes differently from the reference (%d bytes, tag %d; reference %d bytes, tag %d)",
			what, len(data), len(frame), len(got), got[6], len(want), want[6])
	}
}

// TestScannerMatchesReference sweeps the inputs where a word-at-a-time
// scanner can go wrong: every buffer length across the word tail, every
// start offset across a word, runs and gaps at every alignment.
func TestScannerMatchesReference(t *testing.T) {
	const maxLen = 4104
	zero := make([]byte, maxLen)
	ones := bytes.Repeat([]byte{0xFF}, maxLen)
	random := make([]byte, maxLen)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range random {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x%3 != 0 { // about a third zeros, so runs and gaps of every small size occur
			random[i] = byte(x >> 32)
		}
	}
	for n := 0; n <= maxLen; n++ {
		for from := 0; from <= 16 && from <= n; from++ {
			sameFirstRun(t, "all-zero", zero[:n], from)
			sameFirstRun(t, "all-0xFF", ones[:n], from)
		}
		sameCodec(t, "random", random[:n])
		sameCodec(t, "random-suffix", random[maxLen-n:])
	}

	// One non-zero byte at every position: of a full page (plus a word),
	// and of every short buffer, where the tail loop does all the work.
	one := make([]byte, maxLen)
	for p := range one {
		one[p] = 0x5A
		sameCodec(t, "one-byte", one)
		one[p] = 0
	}
	for n := 1; n <= 40; n++ {
		for p := 0; p < n; p++ {
			one[p] = 1
			sameCodec(t, "one-byte-short", one[:n])
			one[p] = 0
		}
	}

	// The 32-byte zero scan. Every start offset across a block and a word
	// × the first non-zero byte at every position of the first three
	// blocks, at the last byte of a page and one past it (and nowhere),
	// over lengths that end inside, on and just past a block edge: the
	// scan must stop in the right block, hand the word loop the right
	// word, and leave the right tail to the byte loop.
	positions := []int{4095, 4096, -1}
	for p := 0; p <= 100; p++ {
		positions = append(positions, p)
	}
	for _, n := range []int{31, 32, 33, 39, 40, 41, 63, 64, 65, 95, 96, 97, 100, 101, 4095, 4096, 4097} {
		buf := make([]byte, n)
		for _, p := range positions {
			if p >= n {
				continue
			}
			if p >= 0 {
				buf[p] = 0x80
			}
			for from := 0; from <= 40 && from <= n; from++ {
				want := from
				for want < n && buf[want] == 0 {
					want++
				}
				if got := skipZeros(buf, from); got != want {
					t.Fatalf("skipZeros(len %d, from %d) with the first non-zero byte at %d = %d, want %d", n, from, p, got, want)
				}
				sameFirstRun(t, "zero-scan", buf, from)
			}
			if p >= 0 {
				buf[p] = 0
			}
		}
	}
	// A non-zero byte in each of the four words of a block, at each byte
	// of the word, in the first, a middle and the last block of a page.
	block := make([]byte, 4096)
	for _, at := range []int{0, 2048, 4064} {
		for b := 0; b < 32; b++ {
			block[at+b] = 1
			sameCodec(t, "word-of-block", block)
			block[at+b] = 0
		}
	}

	// A zero gap of 1-9 bytes at every alignment mod 8, in a non-zero
	// buffer and at the edge of a zero one: the merge rule (gaps shorter
	// than a segment header ride inline) decides every one of these.
	for gap := 1; gap <= 9; gap++ {
		for at := 8; at < 16; at++ {
			for _, n := range []int{at + gap, at + gap + 1, at + gap + 7, 64, 67} {
				b := bytes.Repeat([]byte{0xEE}, n)
				clear(b[at : at+gap])
				sameCodec(t, "gap", b)
				z := make([]byte, n)
				z[at-1] = 1
				if at+gap < n {
					z[at+gap] = 2
				}
				sameCodec(t, "gap-in-zeros", z)
			}
		}
	}
}

// TestEncoderMatchesReferenceOnPageMix covers the page shapes the
// benchmark's workloads ship (mem128m: one byte at offset 0, zero when
// that byte wraps; zone servers: a few short records per page) and the
// raw/sparse break-even, where the early exit to raw must agree with the
// reference's size pass.
func TestEncoderMatchesReferenceOnPageMix(t *testing.T) {
	page := make([]byte, 4096)
	for i := 0; i < 1024; i += 4 {
		page[0] = byte(i)
		sameCodec(t, "mem128m", page)
	}
	for i := 0; i < 64; i++ {
		page[i*64], page[i*64+1] = byte(i), 1
		sameCodec(t, "records", page)
	}
	// Dense prefix of growing length: sparse until the prefix (plus its
	// headers) reaches the page size, raw from there on.
	for n := 4000; n <= 4096; n++ {
		b := make([]byte, 4096)
		for i := 0; i < n; i++ {
			b[i] = 0xA5
		}
		sameCodec(t, "break-even", b)
		b[n/2] = 0 // and split in two segments
		sameCodec(t, "break-even-split", b)
	}
}
