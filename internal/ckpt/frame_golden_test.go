package ckpt

import (
	"encoding/hex"
	"reflect"
	"strings"
	"testing"
	"time"

	"dvemig/internal/netstack"
	"dvemig/internal/proc"
)

// The checkpoint frames, pinned in bytes: each row encodes one frame
// from fixed values, every field distinct and every page record kind
// present (raw, zero, sparse), and must equal the hex recorded at commit
// aa9b64c, then decode back to the same value. TestWireGolden pins what
// a scripted address space encodes to; this pins the field layout.
func TestFrameGolden(t *testing.T) {
	raw := []byte("\x11\x22\x33\x44\x55\x66\x77\x88")
	sparse := append(make([]byte, 40), 0xab, 0xcd)
	sparse = append(sparse, make([]byte, 22)...)
	img := &Image{
		PID: 4242, Name: "zone", CPUDemand: 0.375, LoopPeriod: 50 * time.Millisecond,
		HandledSignals: []proc.Signal{proc.SIGCKPT, 15},
		Threads: []ThreadImage{{TID: 4243, Regs: proc.Registers{PC: 0x401000, SP: 0x7ffe0000,
			GPR: [8]uint64{1, 2, 3, 4, 5, 6, 7, 0x0807060504030201}}}},
		VMAs: []VMARange{{Start: 0x10000, End: 0x30000, Perms: "rw-"}, {Start: 0x400000, End: 0x401000, Perms: "r-x"}},
		Pages: []PageImage{
			{VMAStart: 0x10000, Index: 3, Data: raw},
			{VMAStart: 0x10000, Index: 5, Data: make([]byte, 16)},
			{VMAStart: 0x400000, Index: 0, Data: sparse},
		},
		FDs: []FDImage{
			{FD: 3, Kind: "file", Path: "/srv/zone.db", Offset: 0x1122334455, Flags: 2},
			{FD: 4, Kind: "udp", UDP: &netstack.UDPSnapshot{LocalIP: 0x0a000002, LocalPort: 27960,
				SrcJiffies: 77, Queue: []netstack.Datagram{{SrcIP: 0x0a000001, SrcPort: 40000, TSVal: 9, Payload: []byte("hi")}},
				BytesIn: 1, BytesOut: 2, PacketsIn: 3, PacketsOut: 4}},
			{FD: 5, Kind: "tcp", TCP: &netstack.TCPSnapshot{LocalIP: 0x0a000002, RemoteIP: 0x0a000001,
				OrigLocalIP: 0x0a000002, LocalPort: 80, RemotePort: 40000, State: netstack.TCPEstablished,
				ISS: 1, SndUna: 2, SndNxt: 3, IRS: 4, RcvNxt: 5, Cwnd: 6, Ssthresh: 7, SndWnd: 8, RcvBufMax: 9,
				SRTTms: 10, RTTVarms: 11, RTOms: 12, TSRecent: 13, LastTxJiffies: 14, SrcJiffies: 15, MSS: 16,
				SndBuf: []byte("q"), BytesIn: 17, BytesOut: 18}},
		},
	}
	delta := &MemDelta{
		Round:   3,
		NewVMAs: []VMARange{{Start: 0x3000000, End: 0x3004000, Perms: "rwx"}},
		Removed: []uint64{0x2000000, 0x2100000},
		Resized: []VMARange{{Start: 0x400000, End: 0x658000, Perms: "rw-"}},
		Pages: []PageImage{
			{VMAStart: 0x3000000, Index: 1, Data: sparse},
			{VMAStart: 0x400000, Index: 599, Data: raw},
			{VMAStart: 0x400000, Index: 600, Data: make([]byte, 32)},
		},
	}
	dir := &PageDir{
		VMAs:    []VMARange{{Start: 0x10000, End: 0x30000, Perms: "rw-"}},
		Present: []PageCoord{{VMAStart: 0x10000, Index: 1}, {VMAStart: 0x10000, Index: 7}},
		Absent:  []PageCoord{{VMAStart: 0x10000, Index: 2}},
	}
	for _, row := range []struct {
		name   string
		enc    []byte
		want   string
		decode func([]byte) (any, error)
		value  any
	}{
		{"image", img.Encode(), "00001092000000047a6f6e65000000000005b8d80000000002faf08000000002" +
			"000000400000000f00000001000010930000000000401000000000007ffe0000" +
			"0000000000000001000000000000000200000000000000030000000000000004" +
			"0000000000000005000000000000000600000000000000070807060504030201" +
			"00000002000000000001000000000000000300000000000372772d0000000000" +
			"400000000000000040100000000003722d780000000300000000000100000000" +
			"0000000000030000000008112233445566778800000000000100000000000000" +
			"0000050100000010000000000040000000000000000000000200000040000100" +
			"280002abcd00000003000000030000000466696c650000000c2f7372762f7a6f" +
			"6e652e64620000001122334455000000020000000400000003756470000004fe" +
			"0a0000026d380000004d00000000000000010000000000000002000000000000" +
			"00030000000000000004000000010a0000019c4000000009000000026869" +
			strings.Repeat("00", 1219) +
			"050000000374637000000c7a0000000c000a0000020a0000010a00000200509c" +
			"4004" +
			strings.Repeat("00", 3055) +
			"0100000055000000010000000200000003000000040000000500000006000000" +
			"0700000008000000090000000a0000000b0000000c0000000d0000000e000000" +
			"0f00000010000000000000001100000000000000120000000171020000000400" +
			"000000030000000400000000040000000400000000",
			func(b []byte) (any, error) { return DecodeImage(b) }, img},
		{"mem delta", delta.Encode(), "0000000300000001000000000300000000000000030040000000000372777800" +
			"0000020000000002000000000000000210000000000001000000000040000000" +
			"000000006580000000000372772d000000030000000003000000000000000000" +
			"00010200000040000100280002abcd0000000000400000000000000000025700" +
			"0000000811223344556677880000000000400000000000000000025801000000" +
			"20",
			func(b []byte) (any, error) { return DecodeMemDelta(b) }, delta},
		{"page dir", dir.Encode(), "00000001000000000001000000000000000300000000000372772d0000000200" +
			"0000000001000000000000000000010000000000010000000000000000000700" +
			"00000100000000000100000000000000000002",
			func(b []byte) (any, error) { return DecodePageDir(b) }, dir},
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
