package sockmig

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"dvemig/internal/netsim"
	"dvemig/internal/netstack"
)

// FuzzSockDelta runs the lending decoder and the validating store against
// the copying decoder and section-by-section store they replaced, kept
// below verbatim (down to netstack's old section reader) as the oracle.
// Two deltas are folded in turn into a fresh store of each kind: both
// must accept or both reject each one, and while both accept every
// stored socket must encode to the same bytes. The input is overwritten
// with 0xDB after each fold, so a store that kept a reference into it
// diverges too.
func FuzzSockDelta(f *testing.F) {
	rounds := scriptedDeltaRounds(f)
	for i := range rounds {
		f.Add(rounds[i], rounds[(i+1)%len(rounds)])
	}
	// Shapes the readers must agree on: bytes after a queue's last
	// segment (ignored), a segment cut short, an identity section of its
	// fields alone, a datagram without its sk_buff shell, an unknown
	// section, and a round truncated mid-socket.
	one := func(su SockUpdate) []byte { return (&SockDelta{Round: 2, Socks: []SockUpdate{su}}).Encode() }
	tcp := func(id netstack.SectionID, data []byte) []byte {
		return one(SockUpdate{FD: 3, Kind: 'T', Sections: []SectionUpdate{{ID: id, Data: data}}})
	}
	seg := binary.BigEndian.AppendUint32([]byte{0, 0, 0, 1}, 55) // one 55-byte segment
	seg = append(append(seg, make([]byte, 55)...), make([]byte, netstack.SkbOverheadBytes)...)
	dgram := binary.BigEndian.AppendUint32(make([]byte, 42), 1) // one datagram, no shell
	dgram = append(dgram, make([]byte, 10+4)...)
	f.Add(tcp(netstack.SecWriteQueue, append(append([]byte(nil), seg...), 7)), tcp(netstack.SecOOOQueue, []byte{0, 0, 0, 0, 9}))
	f.Add(tcp(netstack.SecReceiveQueue, seg[:len(seg)-1]), tcp(netstack.SecIdentity, make([]byte, 18)))
	f.Add(one(SockUpdate{FD: 4, Kind: 'U', UDPData: dgram}), tcp(9, nil))
	f.Add(rounds[0][:len(rounds[0])/2], rounds[2])
	f.Fuzz(func(t *testing.T, first, second []byte) {
		store, oracle := NewStore(), newOracleStore()
		for _, in := range [][]byte{first, second} {
			b := append([]byte(nil), in...)
			got := store.ApplyEncoded(b)
			d, want := oracleDecodeSockDelta(in)
			if want == nil {
				want = oracle.Apply(d)
			}
			if (got == nil) != (want == nil) {
				t.Fatalf("store says %v, oracle says %v", got, want)
			}
			if got != nil {
				return // the oracle may have folded part of it
			}
			for i := range b {
				b[i] = 0xDB
			}
			if err := sameStores(store, oracle); err != nil {
				t.Fatal(err)
			}
		}
	})
}

func sameStores(s *Store, o *oracleStore) error {
	if len(s.tcp) != len(o.tcp) || len(s.udp) != len(o.udp) || s.BytesApplied != o.BytesApplied {
		return fmt.Errorf("store holds %d tcp / %d udp / %d bytes applied, oracle %d / %d / %d",
			len(s.tcp), len(s.udp), s.BytesApplied, len(o.tcp), len(o.udp), o.BytesApplied)
	}
	for fd, snap := range s.tcp {
		want, ok := o.tcp[fd]
		if !ok {
			return fmt.Errorf("tcp fd %d only in the store", fd)
		}
		if !bytes.Equal(snap.Encode(), want.snapshot().Encode()) {
			return fmt.Errorf("tcp fd %d encodes differently", fd)
		}
	}
	for fd, snap := range s.udp {
		want, ok := o.udp[fd]
		if !ok {
			return fmt.Errorf("udp fd %d only in the store", fd)
		}
		if !bytes.Equal(snap.Encode(), want.Encode()) {
			return fmt.Errorf("udp fd %d encodes differently", fd)
		}
	}
	return nil
}

// --- the oracle: the copying decoder and store --------------------------

func oracleDecodeSockDelta(b []byte) (*SockDelta, error) {
	off := 0
	get32 := func() (uint32, error) {
		if off+4 > len(b) {
			return 0, fmt.Errorf("sockmig: truncated delta at %d", off)
		}
		v := uint32(b[off])<<24 | uint32(b[off+1])<<16 | uint32(b[off+2])<<8 | uint32(b[off+3])
		off += 4
		return v, nil
	}
	round, err := get32()
	if err != nil {
		return nil, err
	}
	count, err := get32()
	if err != nil {
		return nil, err
	}
	if count > 1<<20 {
		return nil, fmt.Errorf("sockmig: absurd socket count %d", count)
	}
	d := &SockDelta{Round: int(round)}
	for i := uint32(0); i < count; i++ {
		var su SockUpdate
		fd, err := get32()
		if err != nil {
			return nil, err
		}
		su.FD = int(fd)
		if off >= len(b) {
			return nil, fmt.Errorf("sockmig: truncated kind")
		}
		su.Kind = b[off]
		off++
		nsec, err := get32()
		if err != nil {
			return nil, err
		}
		if nsec > 16 {
			return nil, fmt.Errorf("sockmig: absurd section count %d", nsec)
		}
		for j := uint32(0); j < nsec; j++ {
			if off >= len(b) {
				return nil, fmt.Errorf("sockmig: truncated section id")
			}
			id := netstack.SectionID(b[off])
			off++
			n, err := get32()
			if err != nil {
				return nil, err
			}
			if off+int(n) > len(b) {
				return nil, fmt.Errorf("sockmig: truncated section data")
			}
			su.Sections = append(su.Sections, SectionUpdate{ID: id,
				Data: append([]byte(nil), b[off:off+int(n)]...)})
			off += int(n)
		}
		n, err := get32()
		if err != nil {
			return nil, err
		}
		if off+int(n) > len(b) {
			return nil, fmt.Errorf("sockmig: truncated udp data")
		}
		if n > 0 {
			su.UDPData = append([]byte(nil), b[off:off+int(n)]...)
			off += int(n)
		}
		d.Socks = append(d.Socks, su)
	}
	return d, nil
}

type oracleStore struct {
	tcp          map[int]*oracleTCP
	udp          map[int]*netstack.UDPSnapshot
	BytesApplied uint64
}

func newOracleStore() *oracleStore {
	return &oracleStore{tcp: make(map[int]*oracleTCP), udp: make(map[int]*netstack.UDPSnapshot)}
}

func (s *oracleStore) Apply(d *SockDelta) error {
	// A TCP socket the oracle did not hold before the delta must bring
	// its identity section, or nothing of the delta is folded.
	for _, su := range d.Socks {
		if su.Kind != 'T' || s.tcp[su.FD] != nil {
			continue
		}
		identity := false
		for _, sec := range su.Sections {
			identity = identity || sec.ID == netstack.SecIdentity
		}
		if !identity {
			return fmt.Errorf("sockmig: fd %d: %w", su.FD, ErrNoIdentity)
		}
	}
	for _, su := range d.Socks {
		switch su.Kind {
		case 'T':
			snap := s.tcp[su.FD]
			if snap == nil {
				snap = &oracleTCP{}
				s.tcp[su.FD] = snap
			}
			for _, sec := range su.Sections {
				if err := snap.ApplySection(sec.ID, sec.Data); err != nil {
					return fmt.Errorf("sockmig: fd %d section %v: %w", su.FD, sec.ID, err)
				}
				s.BytesApplied += uint64(len(sec.Data))
			}
		case 'U':
			snap, err := oracleDecodeUDPSnapshot(su.UDPData)
			if err != nil {
				return fmt.Errorf("sockmig: fd %d udp: %w", su.FD, err)
			}
			s.udp[su.FD] = snap
			s.BytesApplied += uint64(len(su.UDPData))
		default:
			return fmt.Errorf("sockmig: unknown socket kind %q", su.Kind)
		}
	}
	return nil
}

// oracleTCP is a TCP snapshot as the copying reader held it: the scalar
// fields, and every queued segment in its own copied slice.
type oracleTCP struct {
	netstack.TCPSnapshot
	WriteQueue, ReceiveQueue, OOOQueue [][]byte
}

// snapshot is o in today's form, each queue re-encoded by the old
// writer into the section it is held as.
func (o *oracleTCP) snapshot() *netstack.TCPSnapshot {
	s := o.TCPSnapshot
	held := func(q [][]byte) []byte {
		if len(q) == 0 {
			return nil
		}
		w := oracleWbuf{}
		oracleEncodeQueue(&w, q)
		return w.b
	}
	s.WriteQueue, s.ReceiveQueue, s.OOOQueue = held(o.WriteQueue), held(o.ReceiveQueue), held(o.OOOQueue)
	return &s
}

type oracleWbuf struct{ b []byte }

func (w *oracleWbuf) bytes(v []byte) {
	w.b = binary.BigEndian.AppendUint32(w.b, uint32(len(v)))
	w.b = append(w.b, v...)
}

func oracleEncodeQueue(w *oracleWbuf, q [][]byte) {
	w.b = binary.BigEndian.AppendUint32(w.b, uint32(len(q)))
	for _, pkt := range q {
		w.bytes(pkt)
		// Each buffer carries its sk_buff shell.
		w.b = append(w.b, make([]byte, netstack.SkbOverheadBytes)...)
	}
}

type oracleRbuf struct {
	b   []byte
	off int
	err error
}

func (r *oracleRbuf) fail() {
	if r.err == nil {
		r.err = errors.New("netstack: truncated snapshot")
	}
}
func (r *oracleRbuf) u8() byte {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}
func (r *oracleRbuf) u16() uint16 {
	if r.err != nil || r.off+2 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}
func (r *oracleRbuf) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}
func (r *oracleRbuf) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}
func (r *oracleRbuf) bytes() []byte {
	n := int(r.u32())
	if r.err != nil || n < 0 || r.off+n > len(r.b) {
		r.fail()
		return nil
	}
	v := append([]byte(nil), r.b[r.off:r.off+n]...)
	r.off += n
	return v
}

func oracleDecodeQueue(r *oracleRbuf) [][]byte {
	n := int(r.u32())
	if r.err != nil || n < 0 || n > 1<<20 {
		r.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	q := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		q = append(q, r.bytes())
		// Skip the sk_buff shell.
		if r.off+netstack.SkbOverheadBytes > len(r.b) {
			r.fail()
			return nil
		}
		r.off += netstack.SkbOverheadBytes
	}
	return q
}

func (s *oracleTCP) ApplySection(id netstack.SectionID, data []byte) error {
	r := &oracleRbuf{b: data}
	switch id {
	case netstack.SecIdentity:
		s.LocalIP = netsim.Addr(r.u32())
		s.RemoteIP = netsim.Addr(r.u32())
		s.OrigLocalIP = netsim.Addr(r.u32())
		s.LocalPort = r.u16()
		s.RemotePort = r.u16()
		s.State = netstack.TCPState(r.u8())
		s.Listening = r.u8() == 1
		if len(data) >= netstack.KernelSockImageBytes {
			r.off = netstack.KernelSockImageBytes // skip the static structure image
		}
	case netstack.SecCore:
		s.ISS = r.u32()
		s.SndUna = r.u32()
		s.SndNxt = r.u32()
		s.IRS = r.u32()
		s.RcvNxt = r.u32()
		s.Cwnd = r.u32()
		s.Ssthresh = r.u32()
		s.SndWnd = r.u32()
		s.RcvBufMax = int32(r.u32())
		s.SRTTms = int32(r.u32())
		s.RTTVarms = int32(r.u32())
		s.RTOms = int32(r.u32())
		s.TSRecent = r.u32()
		s.LastTxJiffies = r.u32()
		s.SrcJiffies = r.u32()
		s.MSS = int32(r.u32())
		s.BytesIn = r.u64()
		s.BytesOut = r.u64()
		s.SndBuf = r.bytes()
	case netstack.SecWriteQueue:
		s.WriteQueue = oracleDecodeQueue(r)
	case netstack.SecReceiveQueue:
		s.ReceiveQueue = oracleDecodeQueue(r)
	case netstack.SecOOOQueue:
		s.OOOQueue = oracleDecodeQueue(r)
	default:
		return fmt.Errorf("netstack: unknown section %d", id)
	}
	return r.err
}

func oracleDecodeUDPSnapshot(data []byte) (*netstack.UDPSnapshot, error) {
	r := &oracleRbuf{b: data}
	s := &netstack.UDPSnapshot{}
	s.LocalIP = netsim.Addr(r.u32())
	s.LocalPort = r.u16()
	s.SrcJiffies = r.u32()
	s.BytesIn = r.u64()
	s.BytesOut = r.u64()
	s.PacketsIn = r.u64()
	s.PacketsOut = r.u64()
	n := int(r.u32())
	if r.err != nil || n < 0 || n > 1<<20 {
		return nil, errors.New("netstack: corrupt UDP snapshot")
	}
	for i := 0; i < n; i++ {
		d := netstack.Datagram{}
		d.SrcIP = netsim.Addr(r.u32())
		d.SrcPort = r.u16()
		d.TSVal = r.u32()
		d.Payload = r.bytes()
		if r.off+netstack.SkbOverheadBytes > len(r.b) {
			r.fail()
			break
		}
		r.off += netstack.SkbOverheadBytes
		s.Queue = append(s.Queue, d)
	}
	return s, r.err
}
