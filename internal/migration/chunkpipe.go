package migration

import (
	"errors"
	"fmt"

	"dvemig/internal/ckpt"
	"dvemig/internal/wire"
)

// Chunked checkpoint pipeline (PR 8). Every checkpoint payload — a
// precopy round's memory delta, the final image of either kind —
// crosses the migd connection as chunkBytes-sized MsgChunk frames
// pushed under a bounded window, so the link starts draining the first
// frames while later ones are still being queued, closed by a
// MsgChunkEnd trailer carrying the frame count and total size for
// end-to-end verification.
//
// All frames of one payload are pumped at the same simulated instant
// (zero-delay continuations between window bursts), so the source-side
// encode scratch (ob.encBuf) stays valid for the stream's lifetime and
// event ordering is deterministic regardless of chunk size. The stream
// is announced to the transport before its first frame (SendAhead), so
// the send buffer, which ends the instant holding all of the stream the
// congestion window refused, grows once to that size.

const (
	// chunkBytes is the most payload one MsgChunk frame carries: 64 KiB,
	// 44 full TCP segments, large enough that the 9-byte frame header is
	// noise and small enough that the receiver's buffer stays a few
	// frames deep.
	chunkBytes = 64 << 10
	// chunkWindow is how many frames each event-loop step queues before
	// yielding to the events already due at the same instant. It does
	// not let the transport drain between bursts — no virtual time
	// passes, so no ACK can arrive — and the send buffer holds whatever
	// of the stream cwnd refused; it only bounds how long one event runs.
	chunkWindow = 4
)

// streamWireBytes is what a payload of n bytes puts on the migd
// connection as a chunk stream: each frame's header and chunk header
// around its share of the payload (an empty payload still takes one
// frame), then the CHUNK_END trailer.
func streamWireBytes(n int) int {
	frames := max((n+chunkBytes-1)/chunkBytes, 1)
	return n + frames*(frameHdrBytes+chunkHdrBytes) + frameHdrBytes + chunkEndBytes
}

// streamHook, when set (only tests do), sees every checkpoint stream
// as the source hands it to sendPayload (sent true) and again as the
// destination finishes reassembling it (sent false).
var streamHook func(sent bool, kind byte, payload []byte)

// sendPayload ships one checkpoint payload to the destination as a
// MsgChunk stream. commit marks the payload as the migration's final
// image; the commit fence (obCommitted) rises with the last frame —
// the trailer — because the destination acts only on a complete
// stream, so a cancellation mid-stream still rolls back safely.
func (ob *outbound) sendPayload(kind byte, payload []byte, commit bool) {
	if streamHook != nil {
		streamHook(true, kind, payload)
	}
	ob.chunkStream++
	ob.conn.Socket().SendAhead(streamWireBytes(len(payload)))
	p := chunkPump{ob: ob, kind: kind, stream: ob.chunkStream, payload: payload, commit: commit}
	if !p.window() {
		rest := p // only a stream longer than one window outlives this call
		ob.m.sched().AfterCall(0, "migd.chunk-pump", chunkPumpCall, &rest, nil)
	}
}

// chunkPump is one stream's send cursor: what is left of the payload
// and the next frame's sequence number.
type chunkPump struct {
	ob      *outbound
	kind    byte
	stream  uint32
	seq     uint32
	off     int
	payload []byte
	commit  bool
}

// window queues the next chunkWindow frames and reports whether the
// stream is finished with: its trailer sent, or the migration over.
func (p *chunkPump) window() bool {
	ob := p.ob
	if ob.over() {
		return true
	}
	for i := 0; i < chunkWindow; i++ {
		end := min(p.off+chunkBytes, len(p.payload))
		ob.sendChunkFrame(p.kind, p.stream, p.seq, p.payload[p.off:end])
		if ob.over() {
			return true
		}
		p.seq++
		p.off = end
		if p.off >= len(p.payload) {
			if p.commit {
				ob.st = obCommitted
			}
			ob.send(MsgChunkEnd, chunkEnd{Kind: p.kind, Stream: p.stream,
				Chunks: p.seq, Total: uint64(len(p.payload))}.encode())
			return true
		}
	}
	return false
}

// chunkPumpCall is the pump's closure-free continuation (as tickerCall
// and routeCall are): the window is exhausted, so it yielded for the
// transport to drain what is already queued before the next burst, still
// at the same instant.
func chunkPumpCall(a0, _ any) {
	if p := a0.(*chunkPump); !p.window() {
		p.ob.m.sched().AfterCall(0, "migd.chunk-pump", chunkPumpCall, p, nil)
	}
}

// sendChunkFrame frames one MsgChunk without gluing header and data
// into a temporary buffer (Send2 writes the parts back to back).
func (ob *outbound) sendChunkFrame(kind byte, stream, seq uint32, data []byte) {
	var h [chunkHdrBytes]byte
	putChunkHdr(&h, kind, stream, seq)
	if err := ob.conn.Send2(MsgChunk, h[:], data); err != nil {
		ob.end(err)
	}
}

// --- destination side ----------------------------------------------------

// onChunk appends one frame to the open stream, opening one on the
// first frame. Any protocol violation — unknown kind, interleaved
// streams, a gap or reorder in the sequence — aborts the migration:
// the transport is ordered and reliable, so a malformed stream means a
// broken or hostile peer, not loss.
func (ib *inbound) onChunk(payload []byte) {
	ch, err := decodeChunk(payload)
	if err != nil {
		ib.abort(err)
		return
	}
	if !ib.chunkOpen {
		switch ch.Kind {
		case chunkKindMemDelta, chunkKindFreeze, chunkKindPostImage:
		default:
			ib.abort(fmt.Errorf("migration: unknown chunk kind %d", ch.Kind))
			return
		}
		if ch.Seq != 0 {
			ib.abort(fmt.Errorf("migration: chunk stream %d opened at seq %d", ch.Stream, ch.Seq))
			return
		}
		ib.chunkOpen = true
		ib.chunkKind = ch.Kind
		ib.chunkStream = ch.Stream
		ib.chunkNext = 0
		ib.chunkBuf = ib.chunkBuf[:0]
	}
	if ch.Kind != ib.chunkKind || ch.Stream != ib.chunkStream {
		ib.abort(fmt.Errorf("migration: interleaved chunk streams (kind %d stream %d inside kind %d stream %d)",
			ch.Kind, ch.Stream, ib.chunkKind, ib.chunkStream))
		return
	}
	if ch.Seq != ib.chunkNext {
		ib.abort(fmt.Errorf("migration: chunk seq %d out of order (want %d)", ch.Seq, ib.chunkNext))
		return
	}
	if len(ib.chunkBuf)+len(ch.Data) > maxChunkStreamBytes {
		ib.abort(errors.New("migration: chunk stream exceeds size bound"))
		return
	}
	ib.chunkNext++
	if need := len(ib.chunkBuf) + len(ch.Data); need > cap(ib.chunkBuf) {
		grown := append(wire.Take(chunkBufCap(cap(ib.chunkBuf), need)), ib.chunkBuf...)
		wire.Give(ib.chunkBuf)
		ib.chunkBuf = grown
	}
	ib.chunkBuf = append(ib.chunkBuf, ch.Data...)
}

// chunkBufCap is the capacity the reassembly buffer grows to when a
// frame needs more than it has: double, or what the frame needs if that
// is more, never past maxChunkStreamBytes (need is within it, onChunk
// has checked). The stream's total arrives only with CHUNK_END, so the
// buffer cannot be sized up front; doubling regrows it a logarithmic
// number of times, where append's 1.25× would regrow it every frame.
func chunkBufCap(have, need int) int {
	return min(max(need, 2*have), maxChunkStreamBytes)
}

// onChunkEnd verifies the trailer against what was reassembled and
// hands the payload to its handler.
func (ib *inbound) onChunkEnd(payload []byte) {
	ce, err := decodeChunkEnd(payload)
	if err != nil {
		ib.abort(err)
		return
	}
	if !ib.chunkOpen {
		ib.abort(errors.New("migration: CHUNK_END without an open stream"))
		return
	}
	if ce.Kind != ib.chunkKind || ce.Stream != ib.chunkStream {
		ib.abort(fmt.Errorf("migration: CHUNK_END kind %d stream %d does not match open stream (kind %d stream %d)",
			ce.Kind, ce.Stream, ib.chunkKind, ib.chunkStream))
		return
	}
	if ce.Chunks != ib.chunkNext || ce.Total != uint64(len(ib.chunkBuf)) {
		ib.abort(fmt.Errorf("migration: CHUNK_END declares %d frames/%d bytes, reassembled %d/%d",
			ce.Chunks, ce.Total, ib.chunkNext, len(ib.chunkBuf)))
		return
	}
	kind := ib.chunkKind
	buf := ib.chunkBuf
	ib.chunkOpen = false
	if streamHook != nil {
		streamHook(false, kind, buf)
	}
	if kind == chunkKindMemDelta {
		// The delta is expanded into page-owned memory (every page and
		// string is copied out of the buffer, never subsliced), so the
		// stream scratch is free for the next round's stream.
		if err := ckpt.ApplyEncodedDelta(ib.shadowAS, buf); err != nil {
			ib.abort(err)
		}
		return
	}
	// Decoding a final image hands out subslices of the payload (the
	// image is consumed during restore); sever the scratch so a later
	// append cannot scribble over it.
	ib.chunkBuf = nil
	ib.beginFinal(kind, buf)
}

// beginFinal handles the complete final image: past the point of no
// return, the restore proceeds even if the source dies now (the source
// only dismantles its copy after RestoreDone or PullsDone, and a dead
// source cannot serve — either way exactly one owner remains). For a
// post image the restore resumes the process with holes, and from there
// the *pull lease* bounds source silence instead of the transfer lease.
func (ib *inbound) beginFinal(kind byte, payload []byte) {
	if kind != ib.strat.final {
		ib.abort(fmt.Errorf("migration: final image of kind %d does not match the requested strategy mode %d",
			kind, ib.req.Mode))
		return
	}
	fi, err := decodeFinalImage(kind, payload)
	if err != nil {
		ib.abort(err)
		return
	}
	ib.st = ibRestoring
	ib.silence.stop(ib.m)
	ib.restore(fi)
}
