package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"dvemig/internal/netstack"
	"dvemig/internal/proc"
	"dvemig/internal/wire/wiretest"
)

// frameGoldenImage is the image TestFrameGolden pins in bytes: every
// field distinct, one page record of each kind, and a file, a UDP and a
// TCP descriptor.
func frameGoldenImage() *Image {
	raw := []byte("\x11\x22\x33\x44\x55\x66\x77\x88")
	sparse := append(make([]byte, 40), 0xab, 0xcd)
	sparse = append(sparse, make([]byte, 22)...)
	return &Image{
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
}

// decodeImageSeeds are FuzzDecodeImage's seeds: the frame golden's
// image and every truncation of it; a checkpointed process whose pages
// ship as sparse, zero and raw records, whole and cut mid-page; and the
// golden image with each of its counts claiming far more than follows.
func decodeImageSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	golden := frameGoldenImage().Encode()
	seeds := [][]byte{golden}
	for n := 0; n < len(golden); n++ {
		seeds = append(seeds, golden[:n])
	}

	p := buildProcess(newTestCluster(1))
	region := p.AS.Mmap(2*proc.PageSize, "rw-")
	dense := bytes.Repeat([]byte{0x5A}, proc.PageSize)
	if err := p.AS.Write(region.Start, dense); err != nil {
		tb.Fatal(err)
	}
	if err := p.AS.Touch(region.Start + proc.PageSize); err != nil {
		tb.Fatal(err)
	}
	mixed := Checkpoint(p).Encode()
	seeds = append(seeds, mixed, mixed[:len(mixed)/2])

	// The image's counts, in field order, each at the largest value
	// DecodeImage lets through and with nothing behind it.
	hdr := 4 + 4 + len("zone") + 8 + 8
	for _, at := range []struct {
		off   int
		limit uint32
	}{
		{hdr, 1 << 16},                               // handled signals
		{hdr + 4 + 2*4, 1 << 16},                     // threads
		{hdr + 4 + 2*4 + 4 + 84, 1 << 20},            // regions
		{hdr + 4 + 2*4 + 4 + 84 + 4 + 2*23, 1 << 24}, // pages
	} {
		b := append([]byte(nil), golden[:at.off+4]...)
		binary.BigEndian.PutUint32(b[at.off:], at.limit)
		seeds = append(seeds, b)
	}
	return seeds
}

// sameImage fails t unless got is want. CPUDemand crosses the wire as a
// truncated count of millionths, and a count read back as a float and
// multiplied out again can come one short (249 reads 0.000249 and
// re-encodes as 248), so it is held to the wire's resolution instead —
// while the count is exact in a float64 at all (below 2⁵³).
func sameImage(t *testing.T, got, want *Image) {
	t.Helper()
	if want.CPUDemand*1e6 < 1<<53 && math.Abs(got.CPUDemand-want.CPUDemand) > 1.000001e-6 {
		t.Fatalf("CPUDemand %v re-decoded as %v", want.CPUDemand, got.CPUDemand)
	}
	g := *got
	g.CPUDemand = want.CPUDemand
	if !reflect.DeepEqual(&g, want) {
		t.Fatalf("re-decoded image differs:\n got %+v\nwant %+v", &g, want)
	}
}

// FuzzDecodeImage: DecodeImage reads a peer's bytes — the freeze image
// on the destination, the guardian's checkpoint on failover — so on any
// input it must not panic, and an image it accepts must survive a round
// trip: re-encoded and decoded, it is the same image. The bytes are not
// compared, since a hostile input may encode a page non-canonically.
func FuzzDecodeImage(f *testing.F) {
	for _, b := range decodeImageSeeds(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		img, err := DecodeImage(b)
		if err != nil {
			return
		}
		again, err := DecodeImage(img.Encode())
		if err != nil {
			t.Fatalf("an accepted image, re-encoded, does not decode: %v", err)
		}
		sameImage(t, again, img)
	})
}

// decodeImageAllocK bounds what decoding an image allocates per input
// byte: as for a memory delta (memDeltaAllocK), the densest expansion is
// a zero or sparse page record, 21 bytes that decode into a 4 KiB page.
// decodeImageAllocSlack covers the fixed part: the image and its lists'
// first arrays, and an error's text.
const (
	decodeImageAllocK     = 256
	decodeImageAllocSlack = 64 << 10
)

// TestAllocGateDecodeImage: no seed or committed corpus entry of
// FuzzDecodeImage makes DecodeImage allocate more than its input pays
// for — in particular, no count in the image's header is believed past
// the bytes that follow it.
func TestAllocGateDecodeImage(t *testing.T) {
	inputs := decodeImageSeeds(t)
	for _, args := range wiretest.Corpus(t, "FuzzDecodeImage") {
		inputs = append(inputs, args[0].([]byte))
	}
	for i, b := range inputs {
		wiretest.CheckAllocBound(t, fmt.Sprintf("input %d", i), len(b), decodeImageAllocK, decodeImageAllocSlack, func() { _, _ = DecodeImage(b) })
	}
}
