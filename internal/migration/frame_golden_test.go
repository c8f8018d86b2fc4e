package migration

import (
	"encoding/hex"
	"reflect"
	"testing"

	"dvemig/internal/ckpt"
	"dvemig/internal/netsim"
	"dvemig/internal/obs"
	"dvemig/internal/sockmig"
)

// ckptImageMsg is one decoded guardian checkpoint message.
type ckptImageMsg struct {
	Name           string
	Token, Seq, Ep uint64
	Ctx            obs.TraceContext
	Img            []byte
}

// The migd frames, pinned in bytes: each row encodes one frame from
// fixed values, every field distinct, and must equal the hex recorded at
// commit aa9b64c, then decode back to the same value. Trace hashes fold
// in packet lengths, not payload bytes, so a field swapped inside a
// frame would change no other golden.
func TestFrameGolden(t *testing.T) {
	req := migrateReq{PID: 4242, Strategy: sockmig.IncrementalCollective, Mode: modeHybrid,
		Token: 0x0101010101010101, Epoch: 7, TraceID: 0x0202020202020202, SpanID: 0x0303030303030303, Name: "zone-3"}
	keys := []netsim.FlowKey{
		{RemoteIP: 0x0a000001, RemotePort: 40000, LocalPort: 80, Proto: netsim.ProtoTCP},
		{RemoteIP: 0x0a000004, RemotePort: 40001, LocalPort: 27960, Proto: netsim.ProtoUDP},
	}
	fi := finalImage{FreezeStart: 0x0102030405060708, Image: []byte("image"), Mem: []byte("mem"), SockDelta: []byte("sock")}
	chunk := chunkFrame{Kind: chunkKindMemDelta, Stream: 0x0a0b0c0d, Seq: 3, Data: []byte("payload")}
	end := chunkEnd{Kind: chunkKindFreeze, Stream: 0x0a0b0c0d, Chunks: 4, Total: 0x0102030405}
	done := restoreDone{ResumeAt: 0x0708090a0b, Captured: 12, Reinjected: 11}
	preq := pageReq{ID: 5, Epoch: 7, Coords: []ckpt.PageCoord{{VMAStart: 0x10000, Index: 3}, {VMAStart: 0x400000, Index: 599}}}
	presp := pageResp{ID: 5, Pages: []respPage{
		{Coord: ckpt.PageCoord{VMAStart: 0x10000, Index: 3}, Data: []byte("page three")},
		{Coord: ckpt.PageCoord{VMAStart: 0x400000, Index: 599}, Data: []byte{}},
	}}
	pulls := pullsDone{LastFillAt: 0x0c0d0e0f10, Demand: 17, Prefetched: 230, StallNs: 0x1112131415}
	img := ckptImageMsg{Name: "zone-3", Token: 0x0101010101010101, Seq: 9, Ep: 7,
		Ctx: obs.TraceContext{Trace: 0x0202020202020202, Span: 0x0303030303030303}, Img: []byte("checkpoint")}
	for _, row := range []struct {
		name   string
		enc    []byte
		want   string
		decode func([]byte) (any, error)
		value  any
	}{
		{"migrate req", req.encode(), "0000109202010101010101010100000000000000070202020202020202030303" +
			"0303030303027a6f6e652d33",
			func(b []byte) (any, error) { return decodeMigrateReq(b) }, req},
		{"capture req", encodeCaptureReq(keys), "000000020a0000019c400050060a0000049c416d3811",
			func(b []byte) (any, error) { return decodeCaptureReq(b) }, keys},
		{"freeze image", fi.encode(chunkKindFreeze), "010203040506070800000005696d616765000000036d656d00000004736f636b",
			func(b []byte) (any, error) { return decodeFinalImage(chunkKindFreeze, b) }, fi},
		{"post image", fi.encode(chunkKindPostImage), "010203040506070800000005696d616765000000036d656d0000000000000004" +
			"736f636b",
			func(b []byte) (any, error) { return decodeFinalImage(chunkKindPostImage, b) }, fi},
		{"chunk", chunk.encode(), "010a0b0c0d000000037061796c6f6164",
			func(b []byte) (any, error) { return decodeChunk(b) }, chunk},
		{"chunk end", end.encode(), "020a0b0c0d000000040000000102030405",
			func(b []byte) (any, error) { return decodeChunkEnd(b) }, end},
		{"restore done", done.encode(), "0000000708090a0b0000000c0000000b",
			func(b []byte) (any, error) { return decodeRestoreDone(b) }, done},
		{"page req", preq.encode(), "0000000500000000000000070000000200000000000100000000000000000003" +
			"00000000004000000000000000000257",
			func(b []byte) (any, error) { return decodePageReq(b) }, preq},
		{"page resp", presp.encodeInto(nil), "0000000500000002000000000001000000000000000000030000000a70616765" +
			"2074687265650000000000400000000000000000025700000000",
			func(b []byte) (any, error) { return decodePageResp(b) }, presp},
		{"pulls done", pulls.encode(), "0000000c0d0e0f1000000011000000e60000001112131415",
			func(b []byte) (any, error) { return decodePullsDone(b) }, pulls},
		{"ckpt image", encodeCkptImage(img.Name, img.Token, img.Seq, img.Ep, img.Ctx, img.Img), "0000000000000009010101010101010100000000000000070202020202020202" +
			"0303030303030303000000067a6f6e652d33636865636b706f696e74",
			func(b []byte) (any, error) {
				var m ckptImageMsg
				var err error
				m.Name, m.Token, m.Seq, m.Ep, m.Ctx, m.Img, err = decodeCkptImage(b)
				return m, err
			}, img},
	} {
		if got := hex.EncodeToString(row.enc); got != row.want {
			t.Errorf("%s: encoding moved\n got %s\nwant %s", row.name, got, row.want)
		}
		got, err := row.decode(row.enc)
		if err != nil {
			t.Errorf("%s: decode: %v", row.name, err)
		} else if !reflect.DeepEqual(got, row.value) {
			t.Errorf("%s: decoded %+v, want %+v", row.name, got, row.value)
		}
	}
}
