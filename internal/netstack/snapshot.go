package netstack

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dvemig/internal/netsim"
	"dvemig/internal/wire"
)

// Socket checkpointing: "subtracting state information" in the paper's
// terms. A snapshot is split into *sections* so the incremental collective
// strategy can ship only the sections that changed between precopy loops.
//
// Serialized sizes mirror a Linux 2.6 kernel: dumping one established TCP
// socket costs roughly the size of the tcp_sock/inet_sock/socket structure
// complex (KernelSockImageBytes of core state) plus one skb shell per
// queued buffer (SkbOverheadBytes + wire bytes). These constants make the
// bytes-transferred experiment (Fig 5c) land in the paper's range
// (~3.5 MB for 1024 connections) while the *content* is the real simulated
// socket state.
const (
	// KernelSockImageBytes is the encoded size of the core section.
	KernelSockImageBytes = 3072
	// SkbOverheadBytes is the per-buffer struct sk_buff shell.
	SkbOverheadBytes = 192
	// UDPSockImageBytes is the (smaller) UDP socket structure dump.
	UDPSockImageBytes = 1024
)

// SectionID names one independently transferable piece of socket state.
type SectionID byte

// Sections of a socket snapshot.
const (
	SecIdentity SectionID = iota
	SecCore
	SecWriteQueue
	SecReceiveQueue
	SecOOOQueue
	numSections
)

// String names the section.
func (s SectionID) String() string {
	switch s {
	case SecIdentity:
		return "identity"
	case SecCore:
		return "core"
	case SecWriteQueue:
		return "write-queue"
	case SecReceiveQueue:
		return "receive-queue"
	case SecOOOQueue:
		return "ooo-queue"
	}
	return "unknown"
}

// TCPSnapshot is the extracted state of one TCP socket.
type TCPSnapshot struct {
	LocalIP, RemoteIP     netsim.Addr
	OrigLocalIP           netsim.Addr
	LocalPort, RemotePort uint16
	State                 TCPState
	Listening             bool

	ISS, SndUna, SndNxt uint32
	IRS, RcvNxt         uint32
	Cwnd, Ssthresh      uint32
	SndWnd              uint32
	RcvBufMax           int32
	SRTTms, RTTVarms    int32
	RTOms               int32
	TSRecent            uint32
	LastTxJiffies       uint32
	// SrcJiffies is the source node's jiffies at checkpoint time; the
	// destination computes the adjustment delta from it (§V-C1).
	SrcJiffies uint32
	MSS        int32

	SndBuf []byte
	// The queues are held as their encoded sections — a segment count,
	// then per segment its length, wire bytes and sk_buff shell — which
	// is what a delta ships and what RestoreTCP rebuilds the queue from.
	// No bytes means an empty queue.
	WriteQueue   []byte
	ReceiveQueue []byte
	OOOQueue     []byte

	BytesIn, BytesOut uint64
}

// SnapshotTCP extracts the socket's state. The caller must ensure the
// socket is quiescent (unhashed, or precopy rules: not locked, prequeue
// empty) — the snapshot does not include backlog or prequeue because the
// signal-based freeze guarantees both are empty (§V-C1).
func SnapshotTCP(sk *TCPSocket) *TCPSnapshot {
	s := &TCPSnapshot{}
	SnapshotTCPInto(s, sk)
	return s
}

// SnapshotTCPInto overwrites s with sk's state, under SnapshotTCP's
// quiescence rule. It is the form for a scan that looks at many sockets
// and keeps none of the snapshots: one TCPSnapshot serves them all, and
// SndBuf and the queues reuse their capacity.
func SnapshotTCPInto(s *TCPSnapshot, sk *TCPSocket) {
	*s = TCPSnapshot{
		LocalIP: sk.LocalIP, RemoteIP: sk.RemoteIP, OrigLocalIP: sk.OrigLocalIP,
		LocalPort: sk.LocalPort, RemotePort: sk.RemotePort,
		State: sk.State, Listening: sk.State == TCPListen,
		ISS: sk.ISS, SndUna: sk.SndUna, SndNxt: sk.SndNxt,
		IRS: sk.IRS, RcvNxt: sk.RcvNxt,
		Cwnd: sk.Cwnd, Ssthresh: sk.Ssthresh,
		SndWnd: sk.SndWnd, RcvBufMax: int32(sk.RcvBufMax),
		SRTTms: int32(sk.SRTTms), RTTVarms: int32(sk.RTTVarms), RTOms: int32(sk.RTOms),
		TSRecent: sk.TSRecent, LastTxJiffies: sk.LastTxJiffies,
		// SrcJiffies is the socket's *timestamp clock* at checkpoint,
		// not the raw node clock: a socket that has already migrated
		// once carries an offset, and chaining migrations must compose.
		SrcJiffies:   sk.tsNow(),
		MSS:          int32(sk.MSS),
		SndBuf:       append(s.SndBuf[:0], sk.unsent()...),
		WriteQueue:   appendQueue(s.WriteQueue[:0], sk.writeQueue),
		ReceiveQueue: appendQueue(s.ReceiveQueue[:0], sk.receiveQueue),
		OOOQueue:     appendQueue(s.OOOQueue[:0], sk.oooQueue),
		BytesIn:      sk.BytesIn, BytesOut: sk.BytesOut,
	}
}

// TCPSnapshotLen is the encoded length of all of sk's sections — what a
// round without history ships for it — computed without building them.
func TCPSnapshotLen(sk *TCPSocket) int {
	n := KernelSockImageBytes + coreFieldBytes + 4 + len(sk.unsent())
	for _, q := range [...][]*netsim.Packet{sk.writeQueue, sk.receiveQueue, sk.oooQueue} {
		n += 4
		for _, p := range q {
			n += 4 + p.Len() + SkbOverheadBytes
		}
	}
	return n
}

// appendQueue appends q's held form (see TCPSnapshot.WriteQueue) to dst:
// nothing for an empty queue.
func appendQueue(dst []byte, q []*netsim.Packet) []byte {
	if len(q) == 0 {
		return dst
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(q)))
	for _, p := range q {
		dst = binary.BigEndian.AppendUint32(dst, uint32(p.Len()))
		dst = p.AppendMarshal(dst)
		// Each buffer carries its sk_buff shell.
		dst = append(dst, zeros[:SkbOverheadBytes]...)
	}
	return dst
}

// unmarshalQueue rebuilds a socket queue from its held form out of pool,
// the restoring stack's free list.
func unmarshalQueue(pool *netsim.Pool, held []byte) ([]*netsim.Packet, error) {
	if len(held) == 0 {
		return nil, nil
	}
	r := wire.NewReader(held)
	n := int(r.U32())
	if r.Err() != nil || n > len(held)/(4+SkbOverheadBytes) {
		return nil, wire.ErrTruncated
	}
	out := make([]*netsim.Packet, 0, n)
	for i := 0; i < n; i++ {
		b := r.Span()
		r.Skip(SkbOverheadBytes)
		if r.Err() != nil {
			return nil, r.Err()
		}
		p, err := pool.Unmarshal(b)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// zeros is what pad appends from, as long as the longest padding.
// Copying out of it, rather than append(b, make([]byte, n)...), does not
// depend on the compiler eliding the temporary, which it stops doing
// under the race detector.
var zeros [KernelSockImageBytes]byte

// pad appends zeros to b until it is total bytes long.
func pad(b []byte, total int) []byte {
	if n := total - len(b); n > 0 {
		b = append(b, zeros[:n]...)
	}
	return b
}

// appendSpan appends v behind its u32 length.
func appendSpan(b, v []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(v)))
	return append(b, v...)
}

var errCorruptUDP = errors.New("netstack: corrupt UDP snapshot")

// EncodeSection serializes one section of the snapshot.
func (s *TCPSnapshot) EncodeSection(id SectionID) []byte { return s.AppendSection(nil, id) }

// AppendSection appends the encoding of one section to dst and returns
// the extended slice.
func (s *TCPSnapshot) AppendSection(dst []byte, id SectionID) []byte {
	b := dst
	switch id {
	case SecIdentity:
		b = s.appendIdentityFields(b)
		// The bulk of the kernel socket structure complex (socket,
		// inet_sock, protocol options, sk_buff_head headers, timers, ...)
		// is configuration fixed at connection setup: it rides with the
		// identity section, which never changes after the first transfer.
		b = pad(b, len(dst)+KernelSockImageBytes)
	case SecCore:
		for _, v := range [...]uint32{s.ISS, s.SndUna, s.SndNxt, s.IRS, s.RcvNxt, s.Cwnd, s.Ssthresh,
			s.SndWnd, uint32(s.RcvBufMax), uint32(s.SRTTms), uint32(s.RTTVarms), uint32(s.RTOms),
			s.TSRecent, s.LastTxJiffies, s.SrcJiffies, uint32(s.MSS)} {
			b = binary.BigEndian.AppendUint32(b, v)
		}
		b = binary.BigEndian.AppendUint64(b, s.BytesIn)
		b = binary.BigEndian.AppendUint64(b, s.BytesOut)
		b = appendSpan(b, s.SndBuf)
	case SecWriteQueue:
		b = appendHeldQueue(b, s.WriteQueue)
	case SecReceiveQueue:
		b = appendHeldQueue(b, s.ReceiveQueue)
	case SecOOOQueue:
		b = appendHeldQueue(b, s.OOOQueue)
	}
	return b
}

// identityFieldBytes is the identity section without its padding.
const identityFieldBytes = 18

func (s *TCPSnapshot) appendIdentityFields(b []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(s.LocalIP))
	b = binary.BigEndian.AppendUint32(b, uint32(s.RemoteIP))
	b = binary.BigEndian.AppendUint32(b, uint32(s.OrigLocalIP))
	b = binary.BigEndian.AppendUint16(b, s.LocalPort)
	b = binary.BigEndian.AppendUint16(b, s.RemotePort)
	listening := byte(0)
	if s.Listening {
		listening = 1
	}
	return append(b, byte(s.State), listening)
}

func appendHeldQueue(b, held []byte) []byte {
	if len(held) == 0 {
		return binary.BigEndian.AppendUint32(b, 0)
	}
	return append(b, held...)
}

// AppendSectionHashBytes appends the form of a section a change tracker
// hashes. It changes exactly when the shipped section does, less two
// things: the capture-time clock (SrcJiffies) is masked, because it is
// stamped at every snapshot and would otherwise make an idle socket's
// core section look modified every precopy round, and the identity
// section's constant padding is left out. The queue sections are the
// shipped bytes.
func (s *TCPSnapshot) AppendSectionHashBytes(dst []byte, id SectionID) []byte {
	switch id {
	case SecIdentity:
		return s.appendIdentityFields(dst)
	case SecCore:
		saved := s.SrcJiffies
		s.SrcJiffies = 0
		dst = s.AppendSection(dst, id)
		s.SrcJiffies = saved
		return dst
	}
	return s.AppendSection(dst, id)
}

// coreFieldBytes is the core section up to the send buffer: sixteen
// 32-bit and two 64-bit fields.
const coreFieldBytes = 16*4 + 2*8

// maxQueueLen bounds a queue section's segment count.
const maxQueueLen = 1 << 20

// sectionLen walks one encoded section the way ApplySection reads it,
// allocating nothing, and returns how many leading bytes of data the
// section occupies (ApplySection ignores what follows).
func sectionLen(id SectionID, data []byte) (int, error) {
	r := wire.NewReader(data)
	switch id {
	case SecIdentity:
		r.Skip(identityFieldBytes)
	case SecCore:
		r.Skip(coreFieldBytes)
		r.Span()
	case SecWriteQueue, SecReceiveQueue, SecOOOQueue:
		n := r.U32()
		if n > maxQueueLen {
			r.Fail(wire.ErrTruncated)
		}
		for i := uint32(0); i < n && r.Err() == nil; i++ {
			r.Span()
			r.Skip(SkbOverheadBytes)
		}
	default:
		return 0, fmt.Errorf("netstack: unknown section %d", id)
	}
	return r.Off(), r.Err()
}

// CheckSection reports the error ApplySection would return for data,
// without applying it and without allocating when it is well formed:
// a receiver validates every section of a delta before folding any.
func CheckSection(id SectionID, data []byte) error {
	_, err := sectionLen(id, data)
	return err
}

// ApplySection decodes one encoded section into the snapshot, overwriting
// that section's fields, or returns an error and changes nothing. The
// destination node accumulates sections from successive precopy rounds
// this way and applies the final state in the freeze phase. Nothing of
// data is retained: the send buffer and a queue section are copied into
// the buffers the snapshot already holds.
func (s *TCPSnapshot) ApplySection(id SectionID, data []byte) error {
	n, err := sectionLen(id, data)
	if err != nil {
		return err
	}
	r := wire.NewReader(data[:n])
	switch id {
	case SecIdentity:
		// The static structure image after the fields is not read.
		s.LocalIP = netsim.Addr(r.U32())
		s.RemoteIP = netsim.Addr(r.U32())
		s.OrigLocalIP = netsim.Addr(r.U32())
		s.LocalPort = r.U16()
		s.RemotePort = r.U16()
		s.State = TCPState(r.U8())
		s.Listening = r.U8() == 1
	case SecCore:
		s.ISS = r.U32()
		s.SndUna = r.U32()
		s.SndNxt = r.U32()
		s.IRS = r.U32()
		s.RcvNxt = r.U32()
		s.Cwnd = r.U32()
		s.Ssthresh = r.U32()
		s.SndWnd = r.U32()
		s.RcvBufMax = int32(r.U32())
		s.SRTTms = int32(r.U32())
		s.RTTVarms = int32(r.U32())
		s.RTOms = int32(r.U32())
		s.TSRecent = r.U32()
		s.LastTxJiffies = r.U32()
		s.SrcJiffies = r.U32()
		s.MSS = int32(r.U32())
		s.BytesIn = r.U64()
		s.BytesOut = r.U64()
		s.SndBuf = append(s.SndBuf[:0], r.Span()...)
	case SecWriteQueue:
		s.WriteQueue = holdQueue(s.WriteQueue, data[:n])
	case SecReceiveQueue:
		s.ReceiveQueue = holdQueue(s.ReceiveQueue, data[:n])
	case SecOOOQueue:
		s.OOOQueue = holdQueue(s.OOOQueue, data[:n])
	}
	return nil
}

// holdQueue copies a checked queue section into held's capacity; a
// queue of no segments is held as no bytes. The sk_buff shells are held
// as the writer makes them, zeros, whatever the sender put in them.
func holdQueue(held, sec []byte) []byte {
	if binary.BigEndian.Uint32(sec) == 0 {
		return held[:0]
	}
	held = append(held[:0], sec...)
	r := wire.NewReader(held)
	for n := r.U32(); n > 0; n-- {
		r.Span()
		clear(r.Bytes(SkbOverheadBytes))
	}
	return held
}

// Encode serializes the whole snapshot as a sequence of tagged sections.
func (s *TCPSnapshot) Encode() []byte {
	var b []byte
	for id := SectionID(0); id < numSections; id++ {
		b = append(b, byte(id), 0, 0, 0, 0) // section length, known once it is appended
		at := len(b)
		b = s.AppendSection(b, id)
		binary.BigEndian.PutUint32(b[at-4:], uint32(len(b)-at))
	}
	return b
}

// DecodeTCPSnapshot parses a snapshot produced by Encode.
func DecodeTCPSnapshot(data []byte) (*TCPSnapshot, error) {
	s := &TCPSnapshot{}
	r := wire.NewReader(data)
	for r.Off() < len(data) {
		id := SectionID(r.U8())
		sec := r.Span()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if err := s.ApplySection(id, sec); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// RestoreTCP materializes a socket on st from the snapshot: allocate a
// fresh socket structure, apply the latest state, rebuild the queues with
// timestamps adjusted by the jiffies delta, rehash into ehash/bhash and
// restart the retransmission timer (§V-C1 restore path).
func RestoreTCP(st *Stack, snap *TCPSnapshot) (*TCPSocket, error) {
	sk := NewTCPSocket(st)
	sk.LocalIP = snap.LocalIP
	sk.OrigLocalIP = snap.OrigLocalIP
	sk.RemoteIP = snap.RemoteIP
	sk.LocalPort = snap.LocalPort
	sk.RemotePort = snap.RemotePort
	sk.State = snap.State
	sk.ISS = snap.ISS
	sk.SndUna = snap.SndUna
	sk.SndNxt = snap.SndNxt
	sk.IRS = snap.IRS
	sk.RcvNxt = snap.RcvNxt
	sk.Cwnd = snap.Cwnd
	sk.Ssthresh = snap.Ssthresh
	sk.SndWnd = snap.SndWnd
	if snap.RcvBufMax > 0 {
		sk.RcvBufMax = int(snap.RcvBufMax)
	}
	sk.SRTTms = int(snap.SRTTms)
	sk.RTTVarms = int(snap.RTTVarms)
	sk.RTOms = int(snap.RTOms)
	sk.MSS = int(snap.MSS)
	sk.sndBuf = append([]byte(nil), snap.SndBuf...)
	sk.BytesIn = snap.BytesIn
	sk.BytesOut = snap.BytesOut
	sk.unhashed = true

	// Timestamp continuity: instead of rewriting every buffered TSVal to
	// this node's clock, install a per-socket timestamp offset so the
	// restored socket keeps ticking on the clock its peer already knows
	// (the strategy Linux exposes as TCP_TIMESTAMP during socket
	// repair). SrcJiffies is the socket's timestamp clock at checkpoint
	// time; the offset makes tsNow() resume from exactly that value.
	// This keeps RTT samples valid for ACKs that echo *pre-migration*
	// timestamps — with a clock rewrite those echoes would differ from
	// the destination clock by the inter-node boot delta and inflate the
	// RTO by hours. TSRecent holds the peer's timestamp and is copied
	// verbatim; LastTxJiffies and write-queue TSVals are already on the
	// socket clock and need no adjustment.
	sk.TSOffset = snap.SrcJiffies - st.Jiffies()
	st.Stats.TSFixups++
	sk.TSRecent = snap.TSRecent
	sk.LastTxJiffies = snap.LastTxJiffies

	var err error
	if sk.writeQueue, err = unmarshalQueue(&st.pool, snap.WriteQueue); err != nil {
		return nil, err
	}
	if sk.receiveQueue, err = unmarshalQueue(&st.pool, snap.ReceiveQueue); err != nil {
		return nil, err
	}
	for _, p := range sk.receiveQueue {
		sk.rcvBufUsed += len(p.Payload)
	}
	if sk.oooQueue, err = unmarshalQueue(&st.pool, snap.OOOQueue); err != nil {
		return nil, err
	}
	if !snap.Listening {
		if err := sk.AdoptStack(st); err != nil {
			return nil, err
		}
	} else {
		sk.stack = st
	}
	if err := sk.Rehash(); err != nil {
		return nil, err
	}
	sk.RestartRetransTimer()
	return sk, nil
}

// --- UDP ----------------------------------------------------------------

// UDPSnapshot is the extracted state of a UDP socket: the main structure
// plus the receive-queue buffers (§V-C2).
type UDPSnapshot struct {
	LocalIP    netsim.Addr
	LocalPort  uint16
	SrcJiffies uint32
	Queue      []Datagram

	BytesIn, BytesOut     uint64
	PacketsIn, PacketsOut uint64
}

// SnapshotUDP extracts the socket state.
func SnapshotUDP(us *UDPSocket) *UDPSnapshot {
	queued := us.ReceiveQueue()
	q := make([]Datagram, len(queued))
	for i, p := range queued {
		// The snapshot outlives the queue: its bytes are its own.
		q[i] = Datagram{SrcIP: p.SrcIP, SrcPort: p.SrcPort, TSVal: p.TSVal,
			Payload: append([]byte(nil), p.Payload...)}
	}
	return &UDPSnapshot{
		LocalIP: us.LocalIP, LocalPort: us.LocalPort,
		SrcJiffies: us.stack.Jiffies(), Queue: q,
		BytesIn: us.BytesIn, BytesOut: us.BytesOut,
		PacketsIn: us.PacketsIn, PacketsOut: us.PacketsOut,
	}
}

// UDPSnapshotLen is the encoded length of us's snapshot, computed
// without taking it.
func UDPSnapshotLen(us *UDPSocket) int {
	n := udpFieldBytes + 4 + UDPSockImageBytes
	for _, p := range us.ReceiveQueue() {
		n += udpDatagramFieldBytes + 4 + len(p.Payload) + SkbOverheadBytes
	}
	return n
}

// Encode serializes the UDP snapshot.
func (s *UDPSnapshot) Encode() []byte { return s.AppendEncode(nil) }

// AppendEncode appends the encoding of the UDP snapshot to dst and
// returns the extended slice.
func (s *UDPSnapshot) AppendEncode(dst []byte) []byte {
	b := binary.BigEndian.AppendUint32(dst, uint32(s.LocalIP))
	b = binary.BigEndian.AppendUint16(b, s.LocalPort)
	b = binary.BigEndian.AppendUint32(b, s.SrcJiffies)
	b = binary.BigEndian.AppendUint64(b, s.BytesIn)
	b = binary.BigEndian.AppendUint64(b, s.BytesOut)
	b = binary.BigEndian.AppendUint64(b, s.PacketsIn)
	b = binary.BigEndian.AppendUint64(b, s.PacketsOut)
	b = binary.BigEndian.AppendUint32(b, uint32(len(s.Queue)))
	for _, d := range s.Queue {
		b = binary.BigEndian.AppendUint32(b, uint32(d.SrcIP))
		b = binary.BigEndian.AppendUint16(b, d.SrcPort)
		b = binary.BigEndian.AppendUint32(b, d.TSVal)
		b = appendSpan(b, d.Payload)
		b = append(b, zeros[:SkbOverheadBytes]...)
	}
	return pad(b, len(b)+UDPSockImageBytes) // socket structure image
}

// AppendHashBytes appends the encoding with SrcJiffies masked, for change
// tracking (see TCPSnapshot.AppendSectionHashBytes).
func (s *UDPSnapshot) AppendHashBytes(dst []byte) []byte {
	saved := s.SrcJiffies
	s.SrcJiffies = 0
	dst = s.AppendEncode(dst)
	s.SrcJiffies = saved
	return dst
}

// udpFieldBytes is the UDP snapshot up to its datagram count, and
// udpDatagramFieldBytes one datagram up to its payload.
const (
	udpFieldBytes         = 4 + 2 + 4 + 4*8
	udpDatagramFieldBytes = 4 + 2 + 4
)

// CheckUDPSnapshot reports the error DecodeUDPSnapshot would return for
// data, without allocating when it is well formed.
func CheckUDPSnapshot(data []byte) error {
	r := wire.NewReader(data)
	r.Skip(udpFieldBytes)
	n := r.U32()
	if r.Err() != nil || n > maxQueueLen {
		return errCorruptUDP
	}
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		r.Skip(udpDatagramFieldBytes)
		r.Span()
		r.Skip(SkbOverheadBytes)
	}
	return r.Err()
}

// DecodeUDPSnapshot parses an encoded UDP snapshot. The result shares
// no bytes with data.
func DecodeUDPSnapshot(data []byte) (*UDPSnapshot, error) {
	if err := CheckUDPSnapshot(data); err != nil {
		return nil, err
	}
	r := wire.NewReader(data)
	s := &UDPSnapshot{}
	s.LocalIP = netsim.Addr(r.U32())
	s.LocalPort = r.U16()
	s.SrcJiffies = r.U32()
	s.BytesIn = r.U64()
	s.BytesOut = r.U64()
	s.PacketsIn = r.U64()
	s.PacketsOut = r.U64()
	n := int(r.U32())
	for i := 0; i < n; i++ {
		d := Datagram{}
		d.SrcIP = netsim.Addr(r.U32())
		d.SrcPort = r.U16()
		d.TSVal = r.U32()
		d.Payload = append([]byte(nil), r.Span()...)
		r.Skip(SkbOverheadBytes)
		s.Queue = append(s.Queue, d)
	}
	return s, nil
}

// RestoreUDP materializes a UDP socket on st from the snapshot and
// rehashes it.
func RestoreUDP(st *Stack, snap *UDPSnapshot) (*UDPSocket, error) {
	us := NewUDPSocket(st)
	us.LocalIP = snap.LocalIP
	us.LocalPort = snap.LocalPort
	us.BytesIn = snap.BytesIn
	us.BytesOut = snap.BytesOut
	us.PacketsIn = snap.PacketsIn
	us.PacketsOut = snap.PacketsOut
	for _, d := range snap.Queue {
		p := st.pool.NewPacket()
		p.SrcIP, p.DstIP, p.Proto = d.SrcIP, us.LocalIP, netsim.ProtoUDP
		p.SrcPort, p.DstPort, p.TSVal = d.SrcPort, us.LocalPort, d.TSVal
		if len(d.Payload) > 0 {
			p.Payload = st.pool.GetPayload(len(d.Payload))
			copy(p.Payload, d.Payload)
		}
		us.receiveQueue = append(us.receiveQueue, p)
	}
	us.unhashed = true
	if err := us.Rehash(); err != nil {
		return nil, err
	}
	return us, nil
}
