package migration

import (
	"encoding/binary"
	"fmt"
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

// chunkAllocK bounds what the destination's reassembly buffer allocates
// per stream byte. The stream's total is unknown until CHUNK_END, so the
// buffer doubles: its final capacity is under twice the stream (it
// doubled from less than the stream), and the arrays it outgrew sum to
// no more than that capacity again — at most 4 B per stream byte, and
// 2 B when the stream is a power-of-two number of equal frames. On top
// of that it may take one frame's worth (chunkBytes): small buffers'
// size-class rounding, and what the runtime allocates for itself when a
// growth starts a collection.
const chunkAllocK = 4

// TestAllocGateChunkReassembly: a chunk stream of n frames — the
// engine's 64 KiB frames one to nine at a time, a stream of 7-byte
// frames, uneven frames — is reassembled within chunkAllocK bytes per
// stream byte plus one frame, into a buffer under twice the stream
// (append's 1.25× growth, regrowing at every 64 KiB frame, takes 4.6 B
// per byte by the ninth); and the doubling
// never reaches past maxChunkStreamBytes, however close to it a stream
// comes.
func TestAllocGateChunkReassembly(t *testing.T) {
	for _, shape := range []struct{ frames, size int }{
		{1, chunkBytes}, {2, chunkBytes}, {3, chunkBytes}, {4, chunkBytes}, {5, chunkBytes}, {9, chunkBytes},
		{300, 7}, {7, chunkBytes/3 + 1},
	} {
		var frames [][]byte
		for seq := range shape.frames {
			data := make([]byte, shape.size)
			data[0] = byte(seq)
			frames = append(frames, chunkFrame{Kind: chunkKindMemDelta, Stream: 1, Seq: uint32(seq), Data: data}.encode())
		}
		total := shape.frames * shape.size
		ib := &inbound{}
		what := fmt.Sprintf("%d frames of %d B", shape.frames, shape.size)
		wiretest.CheckAllocBound(t, what, total, chunkAllocK, chunkBytes, func() {
			for _, f := range frames {
				ib.onChunk(f)
			}
		})
		if len(ib.chunkBuf) != total || cap(ib.chunkBuf) >= 2*total {
			t.Errorf("%s: reassembled %d bytes in a %d-byte buffer; want all %d in under twice that", what, len(ib.chunkBuf), cap(ib.chunkBuf), total)
		}
	}
	for _, c := range []struct{ have, need int }{
		{maxChunkStreamBytes/2 + 1, maxChunkStreamBytes/2 + 2},
		{3 * maxChunkStreamBytes / 4, 3*maxChunkStreamBytes/4 + chunkBytes},
		{maxChunkStreamBytes - 1, maxChunkStreamBytes},
	} {
		if got := chunkBufCap(c.have, c.need); got < c.need || got > maxChunkStreamBytes {
			t.Errorf("chunkBufCap(%d, %d) = %d, want within [%d, maxChunkStreamBytes = %d]", c.have, c.need, got, c.need, maxChunkStreamBytes)
		}
	}
}
