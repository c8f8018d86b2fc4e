package netstack

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"dvemig/internal/netsim"
	"dvemig/internal/simtime"
	"dvemig/internal/wire"
	"dvemig/internal/wire/wiretest"
)

// burstPieces is a checkpoint burst as the migration engine sends it: a
// 5-byte frame header, a 9-byte chunk header and up to 64 KiB of stream,
// frame after frame, until total bytes are out.
func burstPieces(total int) [][]byte {
	var pieces [][]byte
	for total > 0 {
		data := min(total-14, 64<<10)
		pieces = append(pieces, make([]byte, 5), make([]byte, 9), make([]byte, data))
		total -= 14 + data
	}
	return pieces
}

// sendBurst announces (when announce is non-zero) and Sends pieces at
// one instant, and reports how many times the send buffer's array moved.
func sendBurst(t *testing.T, sk *TCPSocket, announce int, pieces [][]byte) (regrowths int) {
	t.Helper()
	if announce > 0 {
		sk.SendAhead(announce)
	}
	array, c := unsafe.SliceData(sk.sndBuf), cap(sk.sndBuf)
	for _, p := range pieces {
		if err := sk.Send(p); err != nil {
			t.Fatal(err)
		}
		if cap(sk.sndBuf) != c || unsafe.SliceData(sk.sndBuf) != array {
			regrowths++
			array, c = unsafe.SliceData(sk.sndBuf), cap(sk.sndBuf)
		}
	}
	return regrowths
}

func burstBytes(pieces [][]byte) int {
	n := 0
	for _, p := range pieces {
		n += len(p)
	}
	return n
}

// pageRounding is what the runtime may add to a large allocation: it
// rounds one past 32 KiB up to whole 8 KiB pages. runtimeSlack is what
// else a measurement may see: refilling the pools a collection landing
// inside it emptied. The same burst unannounced allocates 631 KB.
const (
	pageRounding = 8 << 10
	runtimeSlack = 64 << 10
)

// poolCap is the capacity a send buffer grown to hold n bytes has: the
// wire pool's class for n, which is n rounded up to a power of two
// between 64 KiB and 1 MiB.
func poolCap(n int) int {
	b := wire.Take(n)
	wire.Give(b)
	return cap(b)
}

// TestAllocGateSendAhead: a 230 KB burst announced ahead of its 5 B /
// 9 B / 64 KiB pieces, into a socket whose congestion window takes the
// first ten segments (each Send is cut on its own, so the headers take
// two of them), grows the send buffer once, to the refused rest, and
// allocates nothing else (the segments' packets come from warm free
// lists). Unannounced, the same burst regrows it piece by piece.
func TestAllocGateSendAhead(t *testing.T) {
	pieces := burstPieces(230679)
	total := burstBytes(pieces)
	for _, announce := range []int{0, total} {
		p := newPair(t)
		warm, srv := p.connect(t, 4410)
		srv.OnReadable = func() { srv.Discard() }
		sendBurst(t, warm, 0, burstPieces(total)) // fill the stacks' packet and payload free lists
		p.sched.RunFor(time.Second)
		cli, _ := p.connect(t, 4414)
		var regrowths int
		nxt := cli.SndNxt
		alloc := wiretest.AllocatedBytes(func() { regrowths = sendBurst(t, cli, announce, pieces) })
		refused := total - int(cli.SndNxt-nxt)
		if announce == 0 {
			if regrowths < 2 {
				t.Fatalf("unannounced burst regrew the send buffer %d times; the fixture no longer shows the waste", regrowths)
			}
			continue
		}
		if regrowths != 1 || len(cli.sndBuf) != refused || cap(cli.sndBuf) != poolCap(refused) {
			t.Fatalf("announced burst: %d regrowths, %d bytes buffered in %d; want 1 growth to the refused %d (in the pool's %d-byte class)",
				regrowths, len(cli.sndBuf), cap(cli.sndBuf), refused, poolCap(refused))
		}
		if limit := uint64(refused + pageRounding + runtimeSlack); alloc > limit && !wiretest.SkipAllocBound(t, "announced burst") {
			t.Errorf("announced burst allocated %d bytes, want at most the %d-byte buffer + %d", alloc, refused, pageRounding+runtimeSlack)
		}
		if cli.ahead != 0 {
			t.Errorf("announcement left %d bytes outstanding after the burst", cli.ahead)
		}
	}
}

// segTrace records every data segment a NIC transmits: sequence number,
// length and checksum (which covers the payload bytes).
type segTrace struct{ segs []string }

func (s *segTrace) PacketEvent(_ simtime.Time, ev netsim.TapEvent, pk *netsim.Packet) {
	if ev == netsim.TapTx && len(pk.Payload) > 0 {
		s.segs = append(s.segs, fmt.Sprintf("%d+%d/%04x", pk.Seq, len(pk.Payload), pk.ComputeChecksum()))
	}
}

// TestSendAheadKeepsSegments: over seeded burst shapes — pieces of the
// engine's sizes and of random ones, announced exactly, short or long —
// every segment the sender emits, until the connection drains, is the
// one it emits without the announcement.
func TestSendAheadKeepsSegments(t *testing.T) {
	sizes := []int{5, 9, 64 << 10, 1, DefaultMSS, DefaultMSS + 1}
	buffered := 0
	run := func(seed int64, announce func(total int) int) []string {
		rnd := rand.New(rand.NewSource(seed))
		p := newPair(t)
		cli, srv := p.connect(t, 4411)
		srv.OnReadable = func() { srv.Discard() }
		tr := &segTrace{}
		p.na.AttachTap(tr)
		for burst := 0; burst < 3; burst++ {
			var pieces [][]byte
			for i := rnd.Intn(12) + 1; i > 0; i-- {
				n := sizes[rnd.Intn(len(sizes))]
				if rnd.Intn(3) == 0 {
					n = rnd.Intn(3 * DefaultMSS)
				}
				b := make([]byte, n)
				rnd.Read(b)
				pieces = append(pieces, b)
			}
			sendBurst(t, cli, announce(burstBytes(pieces)), pieces)
			if cli.SendBufLen() > 0 {
				buffered++
			}
			p.sched.RunFor(time.Duration(rnd.Intn(3)) * time.Millisecond)
		}
		p.sched.RunFor(time.Minute)
		return tr.segs
	}
	for seed := int64(1); seed <= 12; seed++ {
		want := run(seed, func(int) int { return 0 })
		for name, announce := range map[string]func(int) int{
			"exact": func(n int) int { return n },
			"short": func(n int) int { return n / 3 },
			"long":  func(n int) int { return 2*n + 1000 },
		} {
			got := run(seed, announce)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d, %s announcement: %d segments differ from the unannounced %d", seed, name, len(got), len(want))
			}
		}
	}
	if buffered == 0 {
		t.Fatal("no burst left bytes in the send buffer: the shapes never reach the reservation")
	}
}

// TestSendAheadOverAnnouncement: an announcement the Sends never deliver
// over-reserves once, by at most what it over-announced (rounded up, with
// the refused rest, to the wire pool's class), and is spent doing so:
// nothing is left to inflate the next growth.
func TestSendAheadOverAnnouncement(t *testing.T) {
	p := newPair(t)
	cli, _ := p.connect(t, 4412)
	pieces := burstPieces(100_000)
	const extra = 50_000
	nxt := cli.SndNxt
	sendBurst(t, cli, burstBytes(pieces)+extra, pieces)
	refused := burstBytes(pieces) - int(cli.SndNxt-nxt)
	if over := cap(cli.sndBuf) - refused; over < 0 || cap(cli.sndBuf) > poolCap(refused+extra) || cli.ahead != 0 {
		t.Fatalf("over-announced by %d: buffer over-reserved by %d, %d still announced", extra, over, cli.ahead)
	}
}

// TestSnapshotDropsSendAhead: like RTOMin, an announcement is not
// serialized: the snapshot of an announcing socket encodes to the bytes
// of one that never announced, and the restored socket has none.
func TestSnapshotDropsSendAhead(t *testing.T) {
	p := newPair(t)
	cli, _ := p.connect(t, 4413)
	sendBurst(t, cli, 0, burstPieces(40_000))
	cli.Unhash()
	plain := SnapshotTCP(cli).Encode()
	cli.SendAhead(1 << 20)
	announced := SnapshotTCP(cli).Encode()
	if string(plain) != string(announced) {
		t.Fatal("an announcement changed the snapshot's bytes")
	}
	dec, err := DecodeTCPSnapshot(announced)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreTCP(p.a, dec)
	if err != nil {
		t.Fatal(err)
	}
	if restored.ahead != 0 {
		t.Fatalf("restored socket carries a %d-byte announcement", restored.ahead)
	}
}
