package migration

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"dvemig/internal/netsim"
	"dvemig/internal/netstack"
	"dvemig/internal/simtime"
	"dvemig/internal/sockmig"
)

// FuzzWireDecoders feeds arbitrary bytes to every migd message decoder.
// These parse input from a remote node, so they must never panic, and
// every value they accept must roundtrip through its encoder.
func FuzzWireDecoders(f *testing.F) {
	f.Add(migrateReq{PID: 42, Strategy: sockmig.Collective, Token: 7, Name: "zone"}.encode())
	f.Add(encodeCaptureReq([]netsim.FlowKey{{RemoteIP: 1, RemotePort: 2, LocalPort: 3, Proto: 6}}))
	f.Add(finalImage{FreezeStart: 123, Image: []byte{1}, Mem: []byte{2, 3}}.encode(chunkKindFreeze))
	f.Add(finalImage{FreezeStart: 1, Image: []byte{2}, Mem: []byte{3, 4}, SockDelta: []byte{5}}.encode(chunkKindPostImage))
	f.Add(restoreDone{ResumeAt: 9, Captured: 2, Reinjected: 1}.encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := decodeMigrateReq(data); err == nil {
			if back, err := decodeMigrateReq(req.encode()); err != nil || back != req {
				t.Fatalf("migrateReq roundtrip broken: %+v %v", back, err)
			}
		}
		if keys, err := decodeCaptureReq(data); err == nil {
			back, err := decodeCaptureReq(encodeCaptureReq(keys))
			if err != nil || len(back) != len(keys) {
				t.Fatalf("captureReq roundtrip broken: %v", err)
			}
		}
		for _, kind := range []byte{chunkKindFreeze, chunkKindPostImage} {
			if fi, err := decodeFinalImage(kind, data); err == nil {
				if back := fi.encode(kind); !bytes.Equal(back, data[:len(back)]) {
					t.Fatalf("final image (kind %d) re-encodes to %x, decoded from %x", kind, back, data)
				}
			}
		}
		if rd, err := decodeRestoreDone(data); err == nil {
			if back, err := decodeRestoreDone(rd.encode()); err != nil || back != rd {
				t.Fatalf("restoreDone roundtrip broken: %v", err)
			}
		}
	})
}

// frame is one dispatched migd message, payload copied out of the lent
// buffer.
type frame struct {
	t       MsgType
	payload string
}

// idleStack hosts sockets that never connect.
var idleStack = netstack.NewStack(simtime.NewScheduler(), "idle", 0)

// idleConn is a Conn over a never-connected socket: feed drives the
// parser, Close and EOF work, nothing touches a network.
func idleConn(bufs *bufList) *Conn {
	c := newConn(netstack.NewTCPSocket(idleStack), nil, nil)
	c.bufs = bufs
	return c
}

// dispatched feeds stream to a fresh Conn in the given pieces and
// returns what its owner saw. The handler of frame closeAt (none if < 0)
// calls Close mid-dispatch.
func dispatched(t *testing.T, pieces [][]byte, closeAt int) []frame {
	t.Helper()
	var got []frame
	c := idleConn(&bufList{})
	c.funcs().onMsg = func(mt MsgType, payload []byte) {
		if cap(payload) != len(payload) {
			t.Fatalf("frame %d: lent payload has spare capacity %d over length %d",
				len(got), cap(payload), len(payload))
		}
		if len(got) == closeAt {
			c.Close()
		}
		got = append(got, frame{mt, string(payload)})
	}
	for _, p := range pieces {
		c.feed(p)
	}
	return got
}

// splitEvery cuts stream into pieces of n bytes.
func splitEvery(stream []byte, n int) [][]byte {
	var pieces [][]byte
	for off := 0; off < len(stream); off += n {
		end := off + n
		if end > len(stream) {
			end = len(stream)
		}
		pieces = append(pieces, stream[off:end])
	}
	return pieces
}

// FuzzConnFraming drives the stream reassembler with arbitrary chunk
// boundaries. Whatever the split, the parser must not panic and must
// dispatch exactly the complete frames of the stream, once each, in
// order, with the bytes the stream holds: the (type, payload) sequence
// is the same fed whole, byte by byte, in chunk-byte pieces, or cut in
// two at any offset (every cut inside a later frame compacts the buffer
// under the partial frame), and the same again when a handler closes
// the connection mid-dispatch. Reassembly allocates in proportion to the
// stream (checkFramingAllocs).
func FuzzConnFraming(f *testing.F) {
	three := append(append(
		[]byte{byte(MsgSockDelta), 0, 0, 0, 2, 9, 9},
		byte(MsgAbort), 0, 0, 0, 0),
		byte(MsgChunk), 0, 0, 0, 3, 1, 2, 3, byte(MsgChunkEnd), 0, 0)
	f.Add([]byte{byte(MsgSockDelta), 0, 0, 0, 2, 9, 9}, 3, -1)
	f.Add(three, 4, 0)
	f.Add(three, 1, 1)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, 1, 0)
	f.Add([]byte{}, 1, -1)
	// A good frame, then a header over maxFrameBytes, then a good frame.
	f.Add(append(append(frameBytes(MsgAbort, nil), byte(MsgChunk), 0x04, 0, 0, 1), frameBytes(MsgAbort, nil)...), 2, 0)
	f.Fuzz(func(t *testing.T, stream []byte, chunk, closeAt int) {
		if chunk <= 0 {
			chunk = 1
		}
		// The oracle: walk the headers of the whole stream, up to the
		// first that declares more than a frame may hold.
		var want []frame
		for off := 0; len(stream)-off >= 5; {
			n := int(binary.BigEndian.Uint32(stream[off+1:]))
			if n > maxFrameBytes || len(stream)-off-5 < n {
				break
			}
			want = append(want, frame{MsgType(stream[off]), string(stream[off+5 : off+5+n])})
			off += 5 + n
		}
		check := func(how string, pieces [][]byte, closeAt int) {
			got := dispatched(t, pieces, closeAt)
			if len(got) != len(want) {
				t.Fatalf("%s: %d frames dispatched, stream holds %d", how, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: frame %d = (%v, %x), want (%v, %x)", how, i,
						got[i].t, got[i].payload, want[i].t, want[i].payload)
				}
			}
		}
		checkFramingAllocs(t, stream, chunk)
		if len(want) > 0 {
			closeAt %= len(want)
		}
		for _, at := range []int{-1, closeAt} {
			check("whole", [][]byte{stream}, at)
			check("byte by byte", splitEvery(stream, 1), at)
			check("chunked", splitEvery(stream, chunk), at)
			if len(stream) <= 256 { // quadratic
				for cut := 0; cut <= len(stream); cut++ {
					check(fmt.Sprintf("cut at %d", cut), [][]byte{stream[:cut], stream[cut:]}, at)
				}
			}
		}
	})
}
