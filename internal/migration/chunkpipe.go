package migration

import (
	"errors"
	"fmt"

	"dvemig/internal/ckpt"
	"dvemig/internal/sockmig"
)

// Chunked checkpoint pipeline (PR 8). Historically every checkpoint
// payload — a precopy round's memory delta, the freeze image, the
// post-copy directory image — crossed the migd connection as one
// monolithic message: serialize everything, then hand one giant buffer
// to the transport. Chunking splits the payload into ChunkBytes-sized
// MsgChunk frames pushed under a bounded window, so the link starts
// draining the first frames while later ones are still being queued,
// and closes the stream with a MsgChunkEnd trailer carrying the frame
// count and total size for end-to-end verification.
//
// All frames of one payload are pumped at the same simulated instant
// (zero-delay continuations between window bursts), so the source-side
// encode scratch (ob.encBuf) stays valid for the stream's lifetime and
// event ordering is deterministic regardless of chunk size.

// defaultChunkWindow is the fallback for Config.ChunkWindow: how many
// chunk frames each event-loop step queues before yielding.
const defaultChunkWindow = 4

// sendPayload ships one checkpoint payload to the destination: as the
// legacy monolithic message when chunking is disabled, otherwise as a
// MsgChunk stream. commit marks the payload as the migration's final
// image; the commit fence (ob.commitSent) rises with the last frame —
// the trailer — because the destination acts only on a complete
// stream, so a cancellation mid-stream still rolls back safely.
func (ob *outbound) sendPayload(kind byte, legacy MsgType, payload []byte, commit bool) {
	size := ob.m.Config.ChunkBytes
	if size <= 0 {
		if commit {
			ob.commitSent = true
		}
		ob.send(legacy, payload)
		return
	}
	ob.chunkStream++
	stream := ob.chunkStream
	window := ob.m.Config.ChunkWindow
	if window <= 0 {
		window = defaultChunkWindow
	}
	var seq uint32
	off := 0
	var pump func()
	pump = func() {
		if ob.failed || ob.finished {
			return
		}
		for i := 0; i < window; i++ {
			end := off + size
			if end > len(payload) {
				end = len(payload)
			}
			ob.sendChunkFrame(kind, stream, seq, payload[off:end])
			if ob.failed || ob.finished {
				return
			}
			seq++
			off = end
			if off >= len(payload) {
				if commit {
					ob.commitSent = true
				}
				ob.send(MsgChunkEnd, chunkEnd{Kind: kind, Stream: stream,
					Chunks: seq, Total: uint64(len(payload))}.encode())
				return
			}
		}
		// Window exhausted: yield so the transport drains what is already
		// queued before the next burst, still at the same instant.
		ob.m.sched().After(0, "migd.chunk-pump", pump)
	}
	pump()
}

// sendChunkFrame frames one MsgChunk without gluing header and data
// into a temporary buffer (Send2 writes the parts back to back).
func (ob *outbound) sendChunkFrame(kind byte, stream, seq uint32, data []byte) {
	var h [chunkHdrBytes]byte
	putChunkHdr(&h, kind, stream, seq)
	if err := ob.conn.Send2(MsgChunk, h[:], data); err != nil {
		ob.fail(err)
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
	if !ib.active {
		ib.abort(errors.New("migration: CHUNK before MIGRATE_REQ"))
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
	ib.chunkBuf = append(ib.chunkBuf, ch.Data...)
}

// onChunkEnd verifies the trailer against what was reassembled and
// dispatches the payload into the same handlers the monolithic
// messages use.
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
	switch kind {
	case chunkKindMemDelta:
		// The delta is expanded into page-owned memory (every page and
		// string is copied out of the buffer, never subsliced), so the
		// stream scratch is free for the next round's stream.
		ib.applyMemDelta(buf)
	case chunkKindFreeze:
		// Freeze/post-image decoding hands out subslices of the payload
		// (the image is consumed during restore); sever the scratch so a
		// later append cannot scribble over it.
		ib.chunkBuf = nil
		ib.beginFreeze(buf)
	case chunkKindPostImage:
		ib.chunkBuf = nil
		ib.beginPostImage(buf)
	}
}

// --- payload handlers, shared by monolithic messages and chunk streams ---

// applyMemDelta folds one precopy round's memory delta into the shadow
// address space.
func (ib *inbound) applyMemDelta(payload []byte) {
	if !ib.active {
		ib.abort(errors.New("migration: MEM_DELTA before MIGRATE_REQ"))
		return
	}
	if err := ckpt.ApplyEncodedDelta(ib.shadowAS, payload); err != nil {
		ib.abort(err)
	}
}

// beginFreeze handles the complete pre-copy freeze image: past the
// point of no return, the restore proceeds even if the source dies now
// (the source only dismantles its copy after RestoreDone, and a dead
// source cannot serve — either way exactly one owner remains).
func (ib *inbound) beginFreeze(payload []byte) {
	if !ib.active {
		ib.abort(errors.New("migration: FREEZE before MIGRATE_REQ"))
		return
	}
	fm, err := decodeFreezeMsg(payload)
	if err != nil {
		ib.abort(err)
		return
	}
	ib.restoring = true
	if ib.lease != nil {
		ib.m.sched().Cancel(ib.lease)
		ib.lease = nil
	}
	ib.restore(fm)
}

// beginPostImage handles the complete post-copy/hybrid handover image.
// Same point-of-no-return logic as beginFreeze: the restore (and the
// resume with holes) proceeds; from here the *pull lease* bounds source
// silence instead of the transfer lease.
func (ib *inbound) beginPostImage(payload []byte) {
	if !ib.active {
		ib.abort(errors.New("migration: POST_IMAGE before MIGRATE_REQ"))
		return
	}
	if !ib.post {
		ib.abort(errors.New("migration: POST_IMAGE on a pre-copy migration"))
		return
	}
	pm, err := decodePostImage(payload)
	if err != nil {
		ib.abort(err)
		return
	}
	ib.restoring = true
	if ib.lease != nil {
		ib.m.sched().Cancel(ib.lease)
		ib.lease = nil
	}
	ib.restorePost(pm)
}

// applySockDelta folds a socket delta into the staging store (sockets
// are never chunked — their deltas are small — but the handler lives
// here with its siblings).
func (ib *inbound) applySockDelta(payload []byte) {
	if !ib.active {
		ib.abort(errors.New("migration: SOCK_DELTA before MIGRATE_REQ"))
		return
	}
	sd, err := sockmig.DecodeSockDelta(payload)
	if err != nil {
		ib.abort(err)
		return
	}
	if err := ib.store.Apply(sd); err != nil {
		ib.abort(err)
	}
}
