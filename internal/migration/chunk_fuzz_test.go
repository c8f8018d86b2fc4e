package migration

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"dvemig/internal/ckpt"
	"dvemig/internal/netstack"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
	"dvemig/internal/wire/wiretest"
)

// fakeSrc impersonates a migration *source* at the wire level: it dials
// the real migd daemon on the destination node and injects arbitrary
// chunk frames — the only way to hit the inbound reassembler with
// traffic a real source would never send (gaps, duplicates, interleaved
// streams, garbage).
type fakeSrc struct {
	c    *proc.Cluster
	conn *Conn
	dst  *Migrator // the real daemon under test (set by chunkEnv)

	acked    bool
	restored bool
	aborts   []string
	closed   bool
}

func newFakeSrc(t *testing.T, c *proc.Cluster, from, to *proc.Node) *fakeSrc {
	t.Helper()
	fs := &fakeSrc{c: c}
	sk := netstack.NewTCPSocket(from.Stack)
	fs.conn = newConn(sk, nil, nil)
	fs.conn.funcs().onMsg = func(mt MsgType, payload []byte) {
		switch mt {
		case MsgMigrateAck:
			fs.acked = true
		case MsgRestoreDone:
			fs.restored = true
		case MsgAbort:
			fs.aborts = append(fs.aborts, string(payload))
		}
	}
	fs.conn.funcs().onClose = func() { fs.closed = true }
	if err := sk.Connect(to.LocalIP, MigdPort); err != nil {
		t.Fatal(err)
	}
	c.Sched.RunFor(200 * time.Millisecond)
	if sk.State != netstack.TCPEstablished {
		t.Fatal("fake source never connected")
	}
	return fs
}

// handshake sends a MIGRATE_REQ and waits for the ack.
func (fs *fakeSrc) handshake(t *testing.T, pid int) {
	t.Helper()
	req := migrateReq{PID: pid, Mode: modePrecopy, Name: "chunk_target"}
	fs.conn.Send(MsgMigrateReq, req.encode())
	fs.c.Sched.RunFor(200 * time.Millisecond)
	if !fs.acked {
		t.Fatal("handshake never acked")
	}
}

// sendChunks splits payload into size-byte MsgChunk frames (plus the
// trailer when end is true), exactly as the real sender would.
func (fs *fakeSrc) sendChunks(kind byte, stream uint32, payload []byte, size int, end bool) {
	var seq uint32
	for off := 0; ; {
		n := size
		if off+n > len(payload) {
			n = len(payload) - off
		}
		fs.conn.Send(MsgChunk, chunkFrame{Kind: kind, Stream: stream, Seq: seq,
			Data: payload[off : off+n]}.encode())
		seq++
		off += n
		if off >= len(payload) {
			break
		}
	}
	if end {
		fs.conn.Send(MsgChunkEnd, chunkEnd{Kind: kind, Stream: stream,
			Chunks: seq, Total: uint64(len(payload))}.encode())
	}
}

// validFreezePayload builds a complete freeze image a destination can
// restore: one 4-page VMA with one sparse and one dense page.
func validFreezePayload(pid int) []byte {
	dense := make([]byte, proc.PageSize)
	for i := range dense {
		dense[i] = byte(i%255) + 1
	}
	sparse := make([]byte, proc.PageSize)
	sparse[77] = 0xEE
	md := &ckpt.MemDelta{
		Round:   1,
		NewVMAs: []ckpt.VMARange{{Start: 0x40000, End: 0x40000 + 4*proc.PageSize, Perms: "rw-"}},
		Pages: []ckpt.PageImage{
			{VMAStart: 0x40000, Index: 0, Data: dense},
			{VMAStart: 0x40000, Index: 2, Data: sparse},
		},
	}
	img := &ckpt.Image{PID: pid, Name: "chunk_target",
		Threads: []ckpt.ThreadImage{{TID: 1}}}
	return finalImage{Image: img.Encode(), Mem: md.Encode()}.encode(chunkKindFreeze)
}

// chunkSink is the receiving half of the chunk transport for the wire
// impersonators: it reassembles MsgChunk frames and hands back the
// payload when the trailer closes the stream. It trusts its peer.
type chunkSink struct{ buf []byte }

func (cs *chunkSink) feed(t *testing.T, mt MsgType, payload []byte) (kind byte, stream []byte, done bool) {
	switch mt {
	case MsgChunk:
		ch, err := decodeChunk(payload)
		if err != nil {
			t.Fatalf("chunkSink: %v", err)
		}
		cs.buf = append(cs.buf, ch.Data...)
	case MsgChunkEnd:
		ce, err := decodeChunkEnd(payload)
		if err != nil || ce.Total != uint64(len(cs.buf)) {
			t.Fatalf("chunkSink: trailer %+v over %d reassembled bytes: %v", ce, len(cs.buf), err)
		}
		stream, cs.buf = cs.buf, nil
		return ce.Kind, stream, true
	}
	return 0, nil, false
}

func chunkEnv(t *testing.T) (*fakeSrc, *proc.Cluster) {
	t.Helper()
	c := proc.NewCluster(simtime.NewScheduler(), 2)
	cfg := DefaultConfig()
	cfg.EnableCapture = false
	cfg.InboundLease = 3 * 1e9
	dst, err := NewMigrator(c.Nodes[1], cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs := newFakeSrc(t, c, c.Nodes[0], c.Nodes[1])
	fs.dst = dst
	return fs, c
}

// TestChunkStreamRestoresProcess: a hand-fed chunked freeze stream must
// drive the real destination through a full restore, byte-identically,
// even at a pathological 7-byte chunk size.
func TestChunkStreamRestoresProcess(t *testing.T) {
	fs, c := chunkEnv(t)
	fs.handshake(t, 901)
	payload := validFreezePayload(901)
	fs.sendChunks(chunkKindFreeze, 1, payload, 7, true)
	c.Sched.RunFor(2 * time.Second)
	if len(fs.aborts) > 0 {
		t.Fatalf("destination aborted: %q", fs.aborts)
	}
	if !fs.restored {
		t.Fatal("no RESTORE_DONE")
	}
	p := findProcess(c.Nodes[1], "chunk_target")
	if p == nil {
		t.Fatal("process not restored on destination")
	}
	got, err := p.AS.Read(0x40000, 4*proc.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if got[2*proc.PageSize+77] != 0xEE || got[0] != 1 {
		t.Fatal("restored memory does not match the shipped image")
	}
}

// TestChunkStreamViolationsAbort: every way a chunk stream can be
// malformed must abort the migration (and restore nothing) rather than
// crash or restore garbage.
func TestChunkStreamViolationsAbort(t *testing.T) {
	frame := func(kind byte, stream, seq uint32, data []byte) []byte {
		return chunkFrame{Kind: kind, Stream: stream, Seq: seq, Data: data}.encode()
	}
	end := func(kind byte, stream, chunks uint32, total uint64) []byte {
		return chunkEnd{Kind: kind, Stream: stream, Chunks: chunks, Total: total}.encode()
	}
	cases := map[string][][2]interface{}{
		"chunk-before-req": nil, // special-cased below
		"unknown-kind": {
			{MsgChunk, frame(99, 1, 0, []byte("xx"))},
		},
		"opened-mid-stream": {
			{MsgChunk, frame(chunkKindFreeze, 1, 3, []byte("xx"))},
		},
		"duplicate-seq": {
			{MsgChunk, frame(chunkKindFreeze, 1, 0, []byte("ab"))},
			{MsgChunk, frame(chunkKindFreeze, 1, 0, []byte("ab"))},
		},
		"seq-gap": {
			{MsgChunk, frame(chunkKindFreeze, 1, 0, []byte("ab"))},
			{MsgChunk, frame(chunkKindFreeze, 1, 2, []byte("cd"))},
		},
		"interleaved-kind": {
			{MsgChunk, frame(chunkKindFreeze, 1, 0, []byte("ab"))},
			{MsgChunk, frame(chunkKindMemDelta, 1, 1, []byte("cd"))},
		},
		"interleaved-stream": {
			{MsgChunk, frame(chunkKindFreeze, 1, 0, []byte("ab"))},
			{MsgChunk, frame(chunkKindFreeze, 2, 1, []byte("cd"))},
		},
		"end-without-stream": {
			{MsgChunkEnd, end(chunkKindFreeze, 1, 1, 2)},
		},
		"end-wrong-count": {
			{MsgChunk, frame(chunkKindFreeze, 1, 0, []byte("ab"))},
			{MsgChunkEnd, end(chunkKindFreeze, 1, 2, 2)},
		},
		"end-wrong-total": {
			{MsgChunk, frame(chunkKindFreeze, 1, 0, []byte("ab"))},
			{MsgChunkEnd, end(chunkKindFreeze, 1, 1, 3)},
		},
		"end-truncated": {
			{MsgChunk, frame(chunkKindFreeze, 1, 0, []byte("ab"))},
			{MsgChunkEnd, []byte{1, 2, 3}},
		},
		"chunk-truncated": {
			{MsgChunk, []byte{1, 0, 0}},
		},
		"garbage-content": {
			{MsgChunk, frame(chunkKindFreeze, 1, 0, []byte("not a freeze image"))},
			{MsgChunkEnd, end(chunkKindFreeze, 1, 1, 18)},
		},
	}
	for name, script := range cases {
		t.Run(name, func(t *testing.T) {
			fs, c := chunkEnv(t)
			if name == "chunk-before-req" {
				fs.conn.Send(MsgChunk, frame(chunkKindFreeze, 1, 0, []byte("ab")))
			} else {
				fs.handshake(t, 902)
				for _, step := range script {
					fs.conn.Send(step[0].(MsgType), step[1].([]byte))
				}
			}
			c.Sched.RunFor(2 * time.Second)
			if len(fs.aborts) == 0 && !fs.closed {
				t.Fatal("malformed stream neither aborted nor closed")
			}
			if fs.restored {
				t.Fatal("malformed stream still restored a process")
			}
			if findProcess(c.Nodes[1], "chunk_target") != nil {
				t.Fatal("malformed stream left a process behind")
			}
		})
	}
}

// chunkDecoderSeeds are FuzzChunkDecoders' seeds: a chunk frame, a
// CHUNK_END trailer and nothing.
func chunkDecoderSeeds() [][]byte {
	return [][]byte{
		{1, 0, 0, 0, 1, 0, 0, 0, 0, 0xAB},
		chunkEnd{Kind: 2, Stream: 7, Chunks: 3, Total: 12345}.encode(),
		{},
	}
}

// FuzzChunkDecoders: the frame codecs round-trip, and arbitrary bytes
// never panic the decoders.
func FuzzChunkDecoders(f *testing.F) {
	for _, b := range chunkDecoderSeeds() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if ch, err := decodeChunk(b); err == nil {
			rt := ch.encode()
			if !bytes.Equal(rt, b) {
				t.Fatalf("chunk re-encode mismatch: %x vs %x", rt, b)
			}
		}
		if ce, err := decodeChunkEnd(b); err == nil {
			if !bytes.Equal(ce.encode(), b) {
				t.Fatal("chunk-end re-encode mismatch")
			}
		}
	})
}

// The chunk decoders read a fixed header and alias the rest of the
// frame, so nothing they allocate grows with the input: 0 B per input
// byte. The one allocation is the error a trailer with bytes past its
// end makes (errors.New, 16 B), which the slack covers.
const (
	chunkDecodeAllocK     = 0
	chunkDecodeAllocSlack = 32
)

// TestAllocGateChunkDecoders: no seed or committed corpus entry of
// FuzzChunkDecoders makes decodeChunk or decodeChunkEnd allocate.
func TestAllocGateChunkDecoders(t *testing.T) {
	inputs := chunkDecoderSeeds()
	for _, args := range wiretest.Corpus(t, "FuzzChunkDecoders") {
		inputs = append(inputs, args[0].([]byte))
	}
	for i, b := range inputs {
		wiretest.CheckAllocBound(t, fmt.Sprintf("input %d", i), len(b), chunkDecodeAllocK, chunkDecodeAllocSlack, func() {
			_, _ = decodeChunk(b)
			_, _ = decodeChunkEnd(b)
		})
	}
}

// FuzzChunkStream drives the real migd destination with a script of
// valid, truncated, duplicated, reordered and garbage chunk frames.
// Whatever the script, the daemon must never panic, and a malformed
// stream must never end in a restored process.
func FuzzChunkStream(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 2, 0})
	f.Add([]byte{3, 4, 5, 6})
	f.Add([]byte{7, 8, 2, 9, 0})
	f.Add([]byte{8, 10, 0}) // unknown type byte mid-transfer
	f.Add([]byte{11, 0})    // retired FREEZE slot carrying a valid image
	f.Add([]byte{8, 12})    // second MIGRATE_REQ on an open migration
	f.Add([]byte{13, 0})    // a frame the transfer state has no place for
	f.Fuzz(func(t *testing.T, script []byte) {
		fs, c := chunkEnv(t)
		fs.handshake(t, 903)
		payload := validFreezePayload(903)
		poisoned := false
		restoredAtPoison := false
		step := func() {
			c.Sched.RunFor(50 * time.Millisecond)
		}
		for i := 0; i < len(script) && i < 12; i++ {
			op := script[i] % 14
			arg := 1 + int(script[i]/10)*16 // chunk size 1..401
			switch op {
			case 0: // complete valid stream
				fs.sendChunks(chunkKindFreeze, uint32(i+1), payload, arg, true)
			case 1: // truncated stream (no trailer)
				fs.sendChunks(chunkKindMemDelta, uint32(i+1), payload, arg, false)
				poisoned = true // next open on this stream id mismatches
			case 2: // duplicate first frame
				fs.conn.Send(MsgChunk, chunkFrame{Kind: chunkKindFreeze, Stream: uint32(i + 1),
					Seq: 0, Data: payload[:1]}.encode())
				fs.conn.Send(MsgChunk, chunkFrame{Kind: chunkKindFreeze, Stream: uint32(i + 1),
					Seq: 0, Data: payload[:1]}.encode())
				poisoned = true
			case 3: // out-of-order open
				fs.conn.Send(MsgChunk, chunkFrame{Kind: chunkKindFreeze, Stream: uint32(i + 1),
					Seq: 7, Data: payload[:1]}.encode())
				poisoned = true
			case 4: // unknown kind
				fs.conn.Send(MsgChunk, chunkFrame{Kind: 0xEF, Stream: uint32(i + 1),
					Seq: 0, Data: payload[:1]}.encode())
				poisoned = true
			case 5: // trailer with no stream
				fs.conn.Send(MsgChunkEnd, chunkEnd{Kind: chunkKindFreeze,
					Stream: uint32(i + 1), Chunks: 1, Total: 1}.encode())
				poisoned = true
			case 6: // garbage frame bytes
				fs.conn.Send(MsgChunk, script)
				poisoned = true
			case 7: // garbage trailer bytes
				fs.conn.Send(MsgChunkEnd, script)
				poisoned = true
			case 8: // valid mem-delta stream (empty delta decodes, applies)
				md := (&ckpt.MemDelta{Round: 1}).Encode()
				fs.sendChunks(chunkKindMemDelta, uint32(i+1), md, arg, true)
			case 9: // lying trailer
				fs.sendChunks(chunkKindFreeze, uint32(i+1), payload, arg, false)
				fs.conn.Send(MsgChunkEnd, chunkEnd{Kind: chunkKindFreeze,
					Stream: uint32(i + 1), Chunks: 1, Total: 0}.encode())
				poisoned = true
			case 10: // a type byte nobody assigned
				fs.conn.Send(MsgType(0x40+script[i]), script)
			case 11: // the retired monolithic FREEZE slot, valid image inside
				fs.conn.Send(MsgType(7), payload)
			case 12: // a second MIGRATE_REQ on the open migration
				fs.conn.Send(MsgMigrateReq, migrateReq{PID: 903, Mode: modePrecopy, Name: "chunk_target"}.encode())
			case 13: // known types the transfer state has no place for
				fs.conn.Send(MsgPageResp, pageResp{}.encodeInto(nil))
				fs.conn.Send(MsgRestoreDone, restoreDone{}.encode())
			}
			poisoned = poisoned || op >= 10
			step()
			if poisoned {
				restoredAtPoison = fs.restored
				break
			}
		}
		c.Sched.RunFor(time.Second)
		// A valid stream may have restored *before* the malformed op; the
		// violation is a restore completing after one.
		if poisoned && !restoredAtPoison && fs.restored {
			t.Fatal("restore completed after a malformed stream")
		}
	})
}
