package netstack

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"dvemig/internal/netsim"
	"dvemig/internal/simtime"
)

// The send path is pinned by a script: a program of Sends, pauses, reader
// stalls, lost segments and sender snapshots runs over one connection, and
// every segment that crosses the sender's NIC, either way, is folded into
// a hash. Where segment boundaries fall, when each leaves and what
// each carries is what checkpoints, taps and trace hashes are made of, so
// the hash is recorded once and asserted from then on.

// The op alphabet. Every step is two program bytes: the op and an operand.
const (
	sopSend     = iota // one Send of sendSizes[x]
	sopSend2           // Conn.Send2's shape: 5-byte header, head, optional tail
	sopRun             // let sendPauses[x] of virtual time pass
	sopStall           // the reader stops reading: the peer's window closes
	sopRead            // the reader drains and reads again: the window reopens
	sopSnapshot        // move the sender into a snapshot and back out
	sopLose            // the next data segment the sender emits is lost
	sopClose           // close the sender, whatever is still unsent
	nSendOps
)

var sendSizes = []int{1, 5, 256, DefaultMSS - 1, DefaultMSS, DefaultMSS + 1, 2 * DefaultMSS,
	3*DefaultMSS + 7, 4096, 16*DefaultMSS + 3, 70000}

var sendPauses = []time.Duration{0, 50 * time.Microsecond, time.Millisecond, 10 * time.Millisecond,
	250 * time.Millisecond, 600 * time.Millisecond, 2 * time.Second}

// sendScript drives one connection from a to b.
type sendScript struct {
	p        *pair
	cli, srv *TCPSocket
	sent     []byte // every byte Send accepted, in order
	got      []byte // every byte the reader took, in order
	reading  bool
	lose     bool
	closed   bool
	stamp    byte
	trace    hash.Hash64 // every segment through a's NIC, either way
	segs     int
	probes   int // one-byte segments sent against a closed window
	stalls   int // Sends that left bytes in the send buffer
}

func newSendScript(t *testing.T) *sendScript {
	s := &sendScript{p: newPair(t), reading: true, trace: fnv.New64a()}
	s.cli, s.srv = s.p.connect(t, 4400)
	s.srv.OnReadable = func() {
		if s.reading {
			s.got = s.srv.RecvAppend(s.got)
		}
	}
	nic := s.p.a.nicByName("a.eth0")
	nic.AttachTap(s)
	nic.SetFault(s)
	return s
}

// PacketEvent folds every segment a's NIC sends or delivers, the lost
// ones included: they left the stack and took their place on the wire.
func (s *sendScript) PacketEvent(_ simtime.Time, ev netsim.TapEvent, pk *netsim.Packet) {
	switch ev {
	case netsim.TapTx:
		s.fold('>', pk)
	case netsim.TapRx:
		s.fold('<', pk)
	}
}

// Apply is a's link fault program: it loses the data segment sopLose
// asked for.
func (s *sendScript) Apply(_ simtime.Time, dir string, pk *netsim.Packet) netsim.FaultAction {
	lose := dir == "tx" && s.lose && len(pk.Payload) > 0
	if lose {
		s.lose = false
	}
	return netsim.FaultAction{Drop: lose}
}

func (s *sendScript) fold(dir byte, pk *netsim.Packet) {
	s.segs++
	if dir == '>' && len(pk.Payload) == 1 && s.cli.SndWnd < uint32(s.cli.MSS) {
		s.probes++
	}
	var rec [8 + 1 + 4 + 4 + 4 + 1 + 2]byte
	binary.BigEndian.PutUint64(rec[0:], uint64(s.p.sched.Now()))
	rec[8] = dir
	binary.BigEndian.PutUint32(rec[9:], pk.Seq)
	binary.BigEndian.PutUint32(rec[13:], pk.Ack)
	binary.BigEndian.PutUint32(rec[17:], uint32(len(pk.Payload)))
	rec[21] = pk.Flags
	binary.BigEndian.PutUint16(rec[22:], pk.Window)
	s.trace.Write(rec[:])
}

func (s *sendScript) send(n int) {
	data := make([]byte, n)
	for i := range data {
		s.stamp++
		data[i] = s.stamp
	}
	if err := s.cli.Send(data); err != nil {
		return
	}
	s.sent = append(s.sent, data...)
	for i := range data {
		data[i] = 0xEE // Send does not keep the caller's slice
	}
	if s.cli.SendBufLen() > 0 {
		s.stalls++
	}
}

func (s *sendScript) step(op, x byte) error {
	switch op % nSendOps {
	case sopSend:
		s.send(sendSizes[int(x)%len(sendSizes)])
	case sopSend2:
		s.send(5)
		s.send(sendSizes[int(x)%len(sendSizes)])
		if x&0x80 != 0 {
			s.send(sendSizes[int(x>>3)%len(sendSizes)])
		}
	case sopRun:
		s.p.sched.RunFor(sendPauses[int(x)%len(sendPauses)])
	case sopStall:
		s.reading = false
	case sopRead:
		s.reading = true
		s.got = s.srv.RecvAppend(s.got)
	case sopSnapshot:
		if s.closed {
			break
		}
		s.cli.Unhash()
		snap := SnapshotTCP(s.cli)
		if unsent := s.sent[snap.SndNxt-snap.ISS-1:]; !bytes.Equal(snap.SndBuf, unsent) {
			return fmt.Errorf("snapshot holds %d unsent bytes, the script %d (or they differ)", len(snap.SndBuf), len(unsent))
		}
		if s.cli.SendBufLen() != len(snap.SndBuf) {
			return fmt.Errorf("SendBufLen %d, snapshot SndBuf %d", s.cli.SendBufLen(), len(snap.SndBuf))
		}
		dec, err := DecodeTCPSnapshot(snap.Encode())
		if err != nil {
			return err
		}
		if s.cli, err = RestoreTCP(s.p.a, dec); err != nil {
			return err
		}
	case sopLose:
		s.lose = true
	case sopClose:
		s.closed = s.closed || s.cli.State == TCPEstablished
		s.cli.Close()
	}
	if !bytes.HasPrefix(s.sent, s.got) {
		return fmt.Errorf("the reader's %d bytes are not a prefix of the %d sent", len(s.got), len(s.sent))
	}
	return nil
}

// run executes a program, then lets the connection drain: unless the
// sender was closed over unsent bytes, everything sent must arrive.
func (s *sendScript) run(prog []byte) error {
	for i := 0; i+2 <= len(prog); i += 2 {
		if err := s.step(prog[i], prog[i+1]); err != nil {
			return fmt.Errorf("step %d (op %d): %v", i/2, prog[i]%nSendOps, err)
		}
	}
	unsentAtClose := s.closed && s.cli.SendBufLen() > 0
	if err := s.step(sopRead, 0); err != nil {
		return err
	}
	s.p.sched.RunFor(10 * time.Minute)
	if !bytes.HasPrefix(s.sent, s.got) || (!unsentAtClose && !s.cli.TimedOut && len(s.got) != len(s.sent)) {
		return fmt.Errorf("after the drain the reader holds %d of %d bytes sent", len(s.got), len(s.sent))
	}
	return nil
}

// sendProgram is the pinned script: each regime scripted once, in the
// order wide open, cwnd-limited, zero window (the persist probe fires),
// reopened, a snapshot with bytes still unsent, a seeded stretch of
// everything, and a close over unsent bytes.
func sendProgram(seed int64) []byte {
	var prog []byte
	add := func(ops ...byte) { prog = append(prog, ops...) }
	for x := byte(0); x < 9; x++ { // wide open: every size, each on its own
		add(sopSend, x, sopRun, 3)
	}
	add(sopSend2, 2, sopSend2, 0x80|7<<3|4, sopRun, 3)
	add(sopSend, 9, sopSend2, 7, sopSend, 9, sopSend, 0) // cwnd-limited: 32 segments at once, more behind them
	add(sopSnapshot, 0, sopRun, 2, sopSnapshot, 0, sopRun, 4)
	add(sopStall, 0, sopSend, 10, sopSend2, 3, sopRun, 6, sopRun, 5) // zero window: probes
	add(sopSnapshot, 0, sopRun, 5, sopSend, 1, sopRun, 5)
	add(sopRead, 0, sopRun, 4) // reopened
	add(sopLose, 0, sopSend, 9, sopRun, 6)
	rnd := rand.New(rand.NewSource(seed))
	mix := []byte{sopSend, sopSend, sopSend, sopSend2, sopSend2, sopRun, sopRun, sopRun, sopStall, sopRead, sopRead, sopSnapshot, sopLose}
	for i := 0; i < 400; i++ {
		add(mix[rnd.Intn(len(mix))], byte(rnd.Intn(256)))
	}
	add(sopRead, 0, sopRun, 6, sopStall, 0, sopSend, 10, sopSend, 10, sopRun, 4, sopClose, 0)
	return prog
}

func TestSendSegmentationMatchesParent(t *testing.T) {
	// Recorded with this script at 31f4ef4, whose send path matched the
	// hash recorded at a794a7e (where Send appended every byte to the
	// send buffer and pushNew segmented out of it). Loss sits on the link
	// now, so each lost segment is folded and occupies the wire.
	const want = "ee76a557abd752bb/3193"
	s := newSendScript(t)
	if err := s.run(sendProgram(24)); err != nil {
		t.Fatal(err)
	}
	if s.probes == 0 || s.stalls == 0 || !s.closed {
		t.Fatalf("the script missed a regime: %d probes, %d stalled sends, closed %v", s.probes, s.stalls, s.closed)
	}
	t.Logf("%d segments, %d probes, %d stalled sends, %d bytes", s.segs, s.probes, s.stalls, len(s.sent))
	if got := fmt.Sprintf("%016x/%d", s.trace.Sum64(), s.segs); got != want {
		t.Fatalf("segment trace %s over %d bytes, recorded %s", got, len(s.sent), want)
	}
}

// FuzzSendScript runs arbitrary programs over the same alphabet: bytes
// arrive in order, nothing is lost short of a close over unsent bytes, and
// a snapshot's SndBuf is always exactly the unsent remainder.
func FuzzSendScript(f *testing.F) {
	f.Add(sendProgram(24))
	f.Add([]byte{sopStall, 0, sopSend, 10, sopRun, 5, sopSnapshot, 0, sopRead, 0})
	f.Add([]byte{sopSend, 9, sopLose, 0, sopSend, 9, sopSnapshot, 0, sopClose, 0, sopSend, 1})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 2*256 {
			prog = prog[:2*256]
		}
		if err := newSendScript(t).run(prog); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocGateTCPSend is the send path's allocation contract. On an
// established socket whose peer keeps up, a Send is segmented straight out
// of the caller's slice: no allocation, and the send buffer is never
// grown. When the congestion window refuses part of a Send, the buffer
// holds exactly the refused remainder.
func TestAllocGateTCPSend(t *testing.T) {
	for _, size := range []int{256, 4096} {
		p := newPair(t)
		cli, srv := p.connect(t, 4401)
		srv.OnReadable = func() { srv.Discard() }
		msg := make([]byte, size)
		send := func() {
			if err := cli.Send(msg); err != nil {
				t.Fatal(err)
			}
			p.sched.RunFor(time.Millisecond)
		}
		for i := 0; i < 64; i++ {
			send() // warm the packet, payload and event free lists
		}
		if n := testing.AllocsPerRun(1000, send); n != 0 {
			t.Errorf("%d-byte Send on an unthrottled socket: %.2f allocations, want 0", size, n)
		}
		if cap(cli.sndBuf) != 0 || cli.SndUna != cli.SndNxt {
			t.Errorf("%d-byte Sends left a %d-byte send buffer, %d bytes in flight", size, cap(cli.sndBuf), cli.SndNxt-cli.SndUna)
		}
	}

	p := newPair(t)
	cli, _ := p.connect(t, 4402)
	msg := make([]byte, (InitialCwnd+2)*DefaultMSS+100)
	if err := cli.Send(msg); err != nil {
		t.Fatal(err)
	}
	refused := len(msg) - int(cli.Cwnd)*DefaultMSS
	if len(cli.WriteQueue()) != int(cli.Cwnd) || len(cli.sndBuf) != refused || cli.sndOff != 0 {
		t.Errorf("cwnd-limited Send: %d segments out, %d bytes buffered from offset %d; want %d segments and the refused %d bytes",
			len(cli.WriteQueue()), len(cli.sndBuf), cli.sndOff, cli.Cwnd, refused)
	}
}
