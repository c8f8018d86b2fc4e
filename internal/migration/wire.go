package migration

import (
	"encoding/binary"
	"errors"

	"dvemig/internal/ckpt"
	"dvemig/internal/netsim"
	"dvemig/internal/simtime"
	"dvemig/internal/sockmig"
	"dvemig/internal/wire"
)

// migrateReq opens a migration. Epoch is the sender's ownership epoch
// for the service (Name); a destination whose epoch table has seen a
// higher epoch rejects the request — the sender is acting on superseded
// ownership. TraceID/SpanID carry the source migration span's causal
// coordinate (obs.TraceContext) so the destination's restore spans
// parent into the same end-to-end trace; both are zero when the plane
// is disabled.
type migrateReq struct {
	PID      int
	Strategy sockmig.Strategy
	// Mode is the migration strategy's wire tag (modePrecopy /
	// modePostcopy / modeHybrid): it tells the destination which restore
	// machinery to run — full-image restore, or partial restore plus the
	// page-pull protocol.
	Mode    byte
	Token   uint64
	Epoch   uint64
	TraceID uint64
	SpanID  uint64
	Name    string
}

func (m migrateReq) encode() []byte {
	b := make([]byte, 38, 38+len(m.Name))
	binary.BigEndian.PutUint32(b[0:], uint32(m.PID))
	b[4] = byte(m.Strategy)
	binary.BigEndian.PutUint64(b[5:], m.Token)
	binary.BigEndian.PutUint64(b[13:], m.Epoch)
	binary.BigEndian.PutUint64(b[21:], m.TraceID)
	binary.BigEndian.PutUint64(b[29:], m.SpanID)
	b[37] = m.Mode
	return append(b, m.Name...)
}

func decodeMigrateReq(b []byte) (migrateReq, error) {
	r := wire.NewReader(b)
	m := migrateReq{
		PID:      int(r.U32()),
		Strategy: sockmig.Strategy(r.U8()),
		Token:    r.U64(),
		Epoch:    r.U64(),
		TraceID:  r.U64(),
		SpanID:   r.U64(),
		Mode:     r.U8(),
		Name:     string(r.Rest()),
	}
	return m, r.Err()
}

func encodeCaptureReq(keys []netsim.FlowKey) []byte {
	b := make([]byte, 4, 4+9*len(keys))
	binary.BigEndian.PutUint32(b, uint32(len(keys)))
	for _, k := range keys {
		var e [9]byte
		binary.BigEndian.PutUint32(e[0:], uint32(k.RemoteIP))
		binary.BigEndian.PutUint16(e[4:], k.RemotePort)
		binary.BigEndian.PutUint16(e[6:], k.LocalPort)
		e[8] = k.Proto
		b = append(b, e[:]...)
	}
	return b
}

func decodeCaptureReq(b []byte) ([]netsim.FlowKey, error) {
	r := wire.NewReader(b)
	n := int(r.U32())
	if n > len(r.Rest())/9 {
		r.Fail(wire.ErrTruncated)
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	keys := make([]netsim.FlowKey, 0, n)
	for i := 0; i < n; i++ {
		keys = append(keys, netsim.FlowKey{
			RemoteIP:   netsim.Addr(r.U32()),
			RemotePort: r.U16(),
			LocalPort:  r.U16(),
			Proto:      r.U8(),
		})
	}
	return keys, nil
}

// Chunked checkpoint stream kinds: which logical payload a MsgChunk
// stream reassembles into.
const (
	chunkKindMemDelta  byte = iota + 1 // an encoded ckpt.MemDelta (precopy round)
	chunkKindFreeze                    // a finalImage whose Mem is a ckpt.MemDelta (pre-copy)
	chunkKindPostImage                 // a finalImage whose Mem is a ckpt.PageDir (post-copy/hybrid)
)

// finalImage is the stop-and-copy handover every strategy ends with:
// everything the destination still needs at freeze time. The strategies
// differ only in which pages ride along, and the chunk kind the image
// travels under says which: for chunkKindFreeze Mem is the final memory
// delta; for chunkKindPostImage it is the page directory — geometry plus
// a present/absent verdict per resident page — and the absent pages
// follow on demand.
type finalImage struct {
	FreezeStart simtime.Time
	Image       []byte // encoded ckpt.Image (threads, regular fds, meta)
	Mem         []byte // encoded ckpt.MemDelta or ckpt.PageDir, by kind
	SockDelta   []byte // encoded sockmig.SockDelta (may be empty)
}

// parts lists the length-prefixed parts that follow FreezeStart, in
// wire order. A post image has one more than a freeze image, between
// Mem and SockDelta: a resident-page delta no sender ever filled. It is
// still written, empty, and still required to be empty, so the stream
// is byte for byte the one deployed peers speak.
func (m finalImage) parts(kind byte) [][]byte {
	if kind == chunkKindPostImage {
		return [][]byte{m.Image, m.Mem, nil, m.SockDelta}
	}
	return [][]byte{m.Image, m.Mem, m.SockDelta}
}

// appendFinalImage appends the final image of the given kind to b, each
// part written behind its length prefix by its own encoder (nil leaves
// the part empty), and reports how long the Mem and SockDelta parts came
// out.
func appendFinalImage(b []byte, kind byte, freezeStart simtime.Time,
	image, mem, sock func([]byte) []byte) (_ []byte, memBytes, sockBytes int) {
	b = binary.BigEndian.AppendUint64(b, uint64(freezeStart))
	part := func(enc func([]byte) []byte) int {
		at := len(b)
		b = append(b, 0, 0, 0, 0)
		if enc != nil {
			b = enc(b)
		}
		n := len(b) - at - 4
		binary.BigEndian.PutUint32(b[at:], uint32(n))
		return n
	}
	part(image)
	memBytes = part(mem)
	if kind == chunkKindPostImage {
		part(nil)
	}
	sockBytes = part(sock)
	return b, memBytes, sockBytes
}

func decodeFinalImage(kind byte, b []byte) (finalImage, error) {
	var m finalImage
	r := wire.NewReader(b)
	m.FreezeStart = simtime.Time(r.U64())
	parts := m.parts(kind)
	for i := range parts {
		parts[i] = r.Span()
	}
	if r.Err() != nil {
		return m, r.Err()
	}
	if len(parts) == 4 && len(parts[2]) != 0 {
		return m, errors.New("migration: post image carries a resident-page delta")
	}
	m.Image, m.Mem, m.SockDelta = parts[0], parts[1], parts[len(parts)-1]
	return m, nil
}

// chunkHdrBytes is the fixed prefix of a MsgChunk payload: kind (u8),
// stream id (u32), sequence number (u32).
const chunkHdrBytes = 9

// chunkEndBytes is the exact size of a MsgChunkEnd payload: kind (u8),
// stream id (u32), frame count (u32), total bytes (u64).
const chunkEndBytes = 17

// maxChunkStreamBytes bounds a reassembled stream; a peer claiming more
// is malformed (real images are a few MB at most).
const maxChunkStreamBytes = 1 << 30

// maxFrameBytes bounds one frame on a Conn: it refuses to send more and
// hangs up on a header that declares more. Checkpoint payloads travel
// in chunkBytes-sized frames, so the largest migd frame is a socket
// delta (3 206 B per socket, ≈ 3.3 MB at the sweep's 1 024 connections)
// and the largest of all a guardian's whole-process image (failover.go).
const maxFrameBytes = 64 << 20

// chunkFrame is one decoded MsgChunk payload. Data aliases the input
// buffer; the reassembler copies it into its stream buffer immediately.
type chunkFrame struct {
	Kind   byte
	Stream uint32
	Seq    uint32
	Data   []byte
}

// putChunkHdr fills the frame header the sender prepends via Conn.Send2.
func putChunkHdr(h *[chunkHdrBytes]byte, kind byte, stream, seq uint32) {
	h[0] = kind
	binary.BigEndian.PutUint32(h[1:5], stream)
	binary.BigEndian.PutUint32(h[5:9], seq)
}

func (m chunkFrame) encode() []byte {
	b := make([]byte, chunkHdrBytes+len(m.Data))
	b[0] = m.Kind
	binary.BigEndian.PutUint32(b[1:5], m.Stream)
	binary.BigEndian.PutUint32(b[5:9], m.Seq)
	copy(b[chunkHdrBytes:], m.Data)
	return b
}

func decodeChunk(b []byte) (chunkFrame, error) {
	r := wire.NewReader(b)
	m := chunkFrame{Kind: r.U8(), Stream: r.U32(), Seq: r.U32(), Data: r.Rest()}
	return m, r.Err()
}

// chunkEnd is the stream trailer. Chunks and Total let the destination
// verify it reassembled exactly what the source sent before acting on it.
type chunkEnd struct {
	Kind   byte
	Stream uint32
	Chunks uint32
	Total  uint64
}

func (m chunkEnd) encode() []byte {
	b := make([]byte, chunkEndBytes)
	b[0] = m.Kind
	binary.BigEndian.PutUint32(b[1:5], m.Stream)
	binary.BigEndian.PutUint32(b[5:9], m.Chunks)
	binary.BigEndian.PutUint64(b[9:17], m.Total)
	return b
}

func decodeChunkEnd(b []byte) (chunkEnd, error) {
	r := wire.NewReader(b)
	m := chunkEnd{Kind: r.U8(), Stream: r.U32(), Chunks: r.U32(), Total: r.U64()}
	if len(r.Rest()) != 0 {
		r.Fail(errors.New("migration: malformed CHUNK_END"))
	}
	return m, r.Err()
}

// restoreDone reports completion back to the source.
type restoreDone struct {
	ResumeAt   simtime.Time
	Captured   uint32
	Reinjected uint32
}

func (m restoreDone) encode() []byte {
	b := make([]byte, 16)
	binary.BigEndian.PutUint64(b, uint64(m.ResumeAt))
	binary.BigEndian.PutUint32(b[8:], m.Captured)
	binary.BigEndian.PutUint32(b[12:], m.Reinjected)
	return b
}

func decodeRestoreDone(b []byte) (restoreDone, error) {
	r := wire.NewReader(b)
	m := restoreDone{ResumeAt: simtime.Time(r.U64()), Captured: r.U32(), Reinjected: r.U32()}
	return m, r.Err()
}

// registerBehavior stashes process behaviour (Go closures standing in
// for program text) in the simulation; the token in MIGRATE_REQ or in a
// guardian's image names it, and takeBehavior hands it to the engine
// instance that restores the process. In a real deployment the
// executable is present on all nodes (§II-A).
func registerBehavior(s *simtime.Scheduler, b *ckpt.Behavior) uint64 { return s.Stash(b) }

func takeBehavior(s *simtime.Scheduler, token uint64) *ckpt.Behavior {
	b, _ := s.Take(token).(*ckpt.Behavior)
	return b
}
