package migration

import (
	"encoding/binary"
	"testing"
	"unsafe"

	"dvemig/internal/wire/wiretest"
)

// framingAllocK is how many bytes a Conn may allocate per input byte
// while it reassembles frames, on top of the one reservation a header
// may make ahead of its frame's bytes (at most maxKeptBuf): append
// growth of the receive buffer, by 1.25× past the reservation.
// framingAllocSlack covers what does not scale with the input: a small
// buffer's size-class rounding, and what the runtime allocates for
// itself when the reservation starts a collection.
const (
	framingAllocK     = 8
	framingAllocSlack = 4 << 10
)

// checkFramingAllocs feeds stream to a fresh Conn in chunk-byte pieces
// and fails t unless that allocated at most framingAllocK·len(stream) +
// maxKeptBuf + framingAllocSlack bytes: a header costs what its frame's
// bytes pay for, and one declaring more than has arrived sets aside at
// most maxKeptBuf.
func checkFramingAllocs(t *testing.T, stream []byte, chunk int) {
	t.Helper()
	pieces := splitEvery(stream, chunk)
	c := idleConn(&bufList{})
	wiretest.CheckAllocBound(t, "framing", len(stream), framingAllocK, maxKeptBuf+framingAllocSlack, func() {
		for _, p := range pieces {
			c.feed(p)
		}
	})
}

// TestAllocGateFrameReservedOnce: a 224 KB frame arriving one full
// segment at a time — the first socket delta of a 64-connection zone
// server — is reassembled in the buffer its header reserved: the buffer
// is drawn once and grown once, by the first piece, and never again.
func TestAllocGateFrameReservedOnce(t *testing.T) {
	const mss = 1448
	payload := make([]byte, 224<<10)
	for i := range payload {
		payload[i] = byte(i)
	}
	pieces := splitEvery(frameBytes(MsgSockDelta, payload), mss)
	c := idleConn(&bufList{})
	var got []byte
	c.funcs().onMsg = func(_ MsgType, p []byte) { got = append([]byte(nil), p...) }
	c.feed(pieces[0])
	if cap(c.buf) < 5+len(payload) {
		t.Fatalf("after the header: buffer cap %d, want the frame's %d bytes reserved", cap(c.buf), 5+len(payload))
	}
	array := unsafe.SliceData(c.buf)
	for _, p := range pieces[1 : len(pieces)-1] {
		c.feed(p)
		if unsafe.SliceData(c.buf) != array {
			t.Fatalf("buffer regrown at %d of %d bytes", len(c.buf), 5+len(payload))
		}
	}
	c.feed(pieces[len(pieces)-1])
	if string(got) != string(payload) {
		t.Fatalf("dispatched %d bytes, want the %d-byte payload", len(got), len(payload))
	}
}

// TestAllocGateHeaderReservationCapped: a lone header declaring the
// largest legal frame reserves maxKeptBuf, not the 64 MiB it declares —
// five bytes cannot pin more than that — and a frame past the cap still
// arrives whole, growing by append beyond it.
func TestAllocGateHeaderReservationCapped(t *testing.T) {
	hdr := []byte{byte(MsgChunk), 0, 0, 0, 0}
	binary.BigEndian.PutUint32(hdr[1:], maxFrameBytes)
	c := idleConn(&bufList{})
	wiretest.CheckAllocBound(t, "a header declaring maxFrameBytes", len(hdr), framingAllocK, maxKeptBuf+framingAllocSlack, func() { c.feed(hdr) })
	if c.closed || len(c.buf) != 5 || cap(c.buf) > maxKeptBuf {
		t.Fatalf("closed=%v, holds %d bytes in a %d-byte buffer; want 5 in at most %d", c.closed, len(c.buf), cap(c.buf), maxKeptBuf)
	}

	payload := make([]byte, 3*maxKeptBuf/2)
	payload[len(payload)-1] = 7
	d := idleConn(&bufList{})
	var got int
	d.funcs().onMsg = func(_ MsgType, p []byte) { got = len(p) }
	for _, p := range splitEvery(frameBytes(MsgChunk, payload), 64<<10) {
		d.feed(p)
	}
	if got != len(payload) {
		t.Fatalf("a %d-byte frame dispatched %d bytes", len(payload), got)
	}
}
