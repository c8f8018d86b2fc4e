package netstack

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"dvemig/internal/netsim"
	"dvemig/internal/simtime"
)

// TestReassemblyUnderRandomSegmentOrder drives the receive state machine
// directly with the segments of a message delivered in an arbitrary
// order (with duplicates): the application must always observe the exact
// original byte stream.
func TestReassemblyUnderRandomSegmentOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		st := NewStack(simtime.NewScheduler(), "rx", 0)
		sk := NewTCPSocket(st)
		sk.State = TCPEstablished
		sk.LocalIP, sk.RemoteIP = 1, 2
		sk.LocalPort, sk.RemotePort = 80, 40000
		sk.IRS = 1000
		sk.RcvNxt = 1001
		st.ehash.put(sk)

		msg := make([]byte, 1+rnd.Intn(20000))
		rnd.Read(msg)
		// Segment into random-size pieces.
		var segs []*netsim.Packet
		seq := uint32(1001)
		for off := 0; off < len(msg); {
			n := 1 + rnd.Intn(1800)
			if off+n > len(msg) {
				n = len(msg) - off
			}
			segs = append(segs, &netsim.Packet{
				Proto: netsim.ProtoTCP, SrcIP: 2, DstIP: 1, SrcPort: 40000, DstPort: 80,
				Seq: seq, Flags: netsim.FlagACK | netsim.FlagPSH,
				Payload: append([]byte(nil), msg[off:off+n]...),
			})
			seq += uint32(n)
			off += n
		}
		// Shuffle and duplicate some.
		order := rnd.Perm(len(segs))
		var deliver []*netsim.Packet
		for _, i := range order {
			deliver = append(deliver, segs[i])
			if rnd.Intn(4) == 0 {
				deliver = append(deliver, segs[i].Clone()) // duplicate
			}
		}
		var got []byte
		sk.OnReadable = func() { got = append(got, sk.Recv()...) }
		for _, p := range deliver {
			sk.InjectArrived(p)
		}
		got = append(got, sk.Recv()...)
		if !bytes.Equal(got, msg) {
			t.Fatalf("seed %d: reassembly mismatch (%d vs %d bytes)", seed, len(got), len(msg))
		}
		if len(sk.OOOQueue()) != 0 {
			t.Fatalf("seed %d: ooo queue not drained (%d)", seed, len(sk.OOOQueue()))
		}
		if sk.RcvNxt != 1001+uint32(len(msg)) {
			t.Fatalf("seed %d: RcvNxt wrong", seed)
		}
	}
}

// TestSnapshotSectionsComposeProperty: applying the five sections of a
// snapshot in ANY order reconstructs the same snapshot.
func TestSnapshotSectionsComposeProperty(t *testing.T) {
	p := newPair(t)
	cli, srv := p.connect(t, 4200)
	srv.OnReadable = func() { srv.Recv() }
	cli.Send(bytes.Repeat([]byte("seed"), 500))
	p.sched.RunFor(50 * time.Millisecond)
	cli.Unhash()
	snap := SnapshotTCP(cli)
	var secs [5][]byte
	for id := SectionID(0); id < 5; id++ {
		secs[id] = snap.EncodeSection(id)
	}
	f := func(permSeed uint32) bool {
		rnd := rand.New(rand.NewSource(int64(permSeed)))
		rebuilt := &TCPSnapshot{}
		for _, i := range rnd.Perm(5) {
			if err := rebuilt.ApplySection(SectionID(i), secs[i]); err != nil {
				return false
			}
		}
		return rebuilt.SndNxt == snap.SndNxt && rebuilt.RcvNxt == snap.RcvNxt &&
			rebuilt.LocalPort == snap.LocalPort &&
			bytes.Equal(rebuilt.WriteQueue, snap.WriteQueue) &&
			bytes.Equal(rebuilt.SndBuf, snap.SndBuf)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestChecksumProperty: FixChecksum always validates, and flipping any
// single header byte invalidates (excluding the checksum field itself).
func TestChecksumProperty(t *testing.T) {
	f := func(src, dst uint32, seq uint32, payload []byte, flipAt uint16) bool {
		p := &netsim.Packet{SrcIP: netsim.Addr(src), DstIP: netsim.Addr(dst),
			Proto: netsim.ProtoTCP, SrcPort: 1, DstPort: 2, Seq: seq, Payload: payload}
		p.FixChecksum()
		if !p.ChecksumOK() {
			return false
		}
		// Flip one bit in an address field; must be detected.
		q := p.Clone()
		q.SrcIP ^= 1 << (flipAt % 32)
		return !q.ChecksumOK()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
