// Package netsim models the physical network of the single-IP-address
// cluster from the paper: IPv4/TCP/UDP packets, network interfaces, links
// with bandwidth and latency, the broadcast router that replicates every
// incoming public packet to all DVE server nodes, and the in-cluster
// switch used for private communication.
package netsim

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
)

// Pool is one stack's packet free list: two plain stacks, one of packet
// structs and one of payload arrays. A simulation cell runs on one
// goroutine and a stack belongs to one cell, so the list needs no lock
// and none of a sync.Pool's per-P machinery. Everything a Pool hands out
// remembers it (Packet.home): Clone draws the sibling from the same Pool
// and Release returns struct and payload there, wherever in the cell the
// packet dies — a router, a fault drop, another node's socket. A list
// therefore never holds more than its own stack's peak of outstanding
// packets, which is why it has no cap, and it dies with the cell. The
// zero value is ready to use; a Pool must not be copied once used.
//
// The nil *Pool is the handle-less form behind the package-level
// NewPacket / GetPayload / Unmarshal: it falls back to two
// process-wide sync.Pools, for callers that mint packets with no stack in
// hand (tests, the layer benchmarks' raw-NIC drivers).
type Pool struct {
	packets  []*Packet
	payloads []*[payloadArrayLen]byte
	minted   PoolStats // the Minted fields only
}

// PoolStats is a Pool's census. Minted counts what the Pool allocated
// because its list was empty — its stack's peak of outstanding packets,
// since the list is always drawn from first. Idle counts what sits in
// the list now; Minted − Idle is out in the cell.
type PoolStats struct {
	PacketsMinted, PacketsIdle   int
	PayloadsMinted, PayloadsIdle int
}

// Stats reports the Pool's census, for tests and diagnostics.
func (pl *Pool) Stats() PoolStats {
	s := pl.minted
	s.PacketsIdle, s.PayloadsIdle = len(pl.packets), len(pl.payloads)
	return s
}

// sharedPayloads and sharedPackets serve nil-home packets only.
var (
	sharedPayloads = sync.Pool{New: func() any { return new([payloadArrayLen]byte) }}
	sharedPackets  = sync.Pool{New: func() any { return new(Packet) }}
)

const (
	// payloadBufCap is the largest payload a pooled buffer carries: one
	// Ethernet MTU plus slack for jumbo checkpoint chunks staying under
	// 1536.
	payloadBufCap = 1536
	// payloadArrayLen is the size of the pooled array: the payload bytes
	// followed by the buffer's holder count. The count lives in the array
	// itself, past the largest payload, so it is reachable from any
	// []byte that GetPayload returned (b[:cap(b)]) and packets can share
	// a buffer without a side table. 1540 is not a Go allocation size
	// class, so no append-grown foreign slice ever has this capacity.
	payloadArrayLen = payloadBufCap + 4
)

// holders returns the holder-count cell of a pooled payload buffer, nil
// for a foreign one (a literal, an oversized GetPayload, or a re-sliced
// buffer whose capacity no longer reaches the cell). Foreign buffers are
// never recycled — the garbage collector owns them — so sharing them
// needs no count.
func holders(b []byte) []byte {
	if cap(b) != payloadArrayLen || len(b) > payloadBufCap {
		return nil
	}
	return b[payloadBufCap:payloadArrayLen]
}

// GetPayload returns a length-n byte slice with one holder, recycled from
// the free list when n fits a pooled buffer. The caller fills it once,
// before the packet carrying it is first transmitted; from then on the
// bytes are immutable, because Clone shares the buffer between packets.
// Callers must not append to the slice (the spare capacity holds the
// holder count). It belongs on a packet minted by the same Pool: the last
// holder's Release returns the buffer to that packet's home.
func (pl *Pool) GetPayload(n int) []byte {
	if n > payloadBufCap {
		return make([]byte, n)
	}
	var a *[payloadArrayLen]byte
	if pl == nil {
		// The shared pool holds array pointers, not *[]byte headers: a
		// pointer round-trips through `any` without boxing.
		a = sharedPayloads.Get().(*[payloadArrayLen]byte)
	} else if last := len(pl.payloads) - 1; last >= 0 {
		a = pl.payloads[last]
		pl.payloads = pl.payloads[:last]
	} else {
		a = new([payloadArrayLen]byte)
		pl.minted.PayloadsMinted++
	}
	b := a[:n]
	binary.LittleEndian.PutUint32(holders(b), 1)
	return b
}

// GetPayload is the handle-less Pool.GetPayload.
func GetPayload(n int) []byte { return (*Pool)(nil).GetPayload(n) }

// sharePayload adds a holder to a pooled buffer; a no-op on foreign ones.
func sharePayload(b []byte) {
	if h := holders(b); h != nil {
		binary.LittleEndian.PutUint32(h, binary.LittleEndian.Uint32(h)+1)
	}
}

// putPayload drops one holder of a pooled buffer; the last holder's call
// recycles it into pl. Oversized or foreign buffers are simply dropped.
// The count is not atomic: a buffer only ever circulates inside one
// simulation, which runs on one goroutine.
func (pl *Pool) putPayload(b []byte) {
	h := holders(b)
	if h == nil {
		return
	}
	n := binary.LittleEndian.Uint32(h) - 1
	binary.LittleEndian.PutUint32(h, n)
	if n != 0 {
		return
	}
	if poisonReleased {
		for i := range b {
			b[i] = 0xDB
		}
	}
	a := (*[payloadArrayLen]byte)(b[:payloadArrayLen])
	if pl == nil {
		sharedPayloads.Put(a)
		return
	}
	pl.payloads = append(pl.payloads, a)
}

// poisonReleased is the lending contracts' tripwire: while set, the last
// holder's release overwrites a pooled payload before recycling it, so
// whoever kept a lent Datagram.Payload, or a slice decoded out of one,
// past the loan reads 0xDB at once instead of whenever the buffer next
// carries a packet. Only test packages set it, from their export_test.go.
var poisonReleased bool

// PoisonReleasedPayloads turns the tripwire on for the rest of the
// process. It is for a test package's init.
func PoisonReleasedPayloads() { poisonReleased = true }

// NewPacket returns a zeroed Packet homed in pl. Callers that construct
// literal &Packet{} values remain correct (Release accepts any packet),
// they just bypass the free lists.
func (pl *Pool) NewPacket() *Packet {
	p := pl.getPacket()
	*p = Packet{home: pl}
	return p
}

// NewPacket is the handle-less Pool.NewPacket.
func NewPacket() *Packet { return (*Pool)(nil).NewPacket() }

// getPacket draws a struct (with stale contents) from the free list.
func (pl *Pool) getPacket() *Packet {
	if poolAudit != nil {
		poolAudit.obtained++
	}
	if pl == nil {
		return sharedPackets.Get().(*Packet)
	}
	if last := len(pl.packets) - 1; last >= 0 {
		p := pl.packets[last]
		pl.packets = pl.packets[:last]
		return p
	}
	pl.minted.PacketsMinted++
	return new(Packet)
}

// poolAudit, while a test has one installed (export_test.go), counts the
// packets drawn from and returned to the free lists, so an ownership
// test can assert that every packet a run obtained reached a sink. Nil —
// one predictable branch per packet — everywhere else.
var poolAudit *struct{ obtained, released uint64 }

// Release ends this packet's life: it drops the packet's hold on the
// payload buffer (the last holder recycles it) and returns the struct to
// its home. A packet struct has exactly one owner at every hop, and every
// sink calls Release: drop paths in the fabric and the stack, the router
// after its fan-out, the receiving socket once the bytes are copied out,
// the write queue when a segment is acknowledged. Releasing twice before
// the struct is reused is harmless (the second call sees the released
// flag); fields must not be read after Release — the struct may be
// serving another packet.
func (p *Packet) Release() {
	if p.released {
		return
	}
	p.released = true
	home := p.home
	home.putPayload(p.Payload)
	p.Payload = nil
	if poolAudit != nil {
		poolAudit.released++
	}
	if home == nil {
		sharedPackets.Put(p)
		return
	}
	home.packets = append(home.packets, p)
}

// Addr is an IPv4 address.
type Addr uint32

// MakeAddr builds an address from dotted-quad components.
func MakeAddr(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// String renders the address in dotted-quad notation.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// Protocol numbers, matching IANA assignments.
const (
	ProtoTCP = 6
	ProtoUDP = 17
)

// TCP header flag bits.
const (
	FlagFIN = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
)

// Packet is a simulated IP datagram carrying either a TCP segment or a UDP
// datagram. Header fields are kept as plain struct members; Marshal
// produces a canonical wire encoding used for checksums, size accounting
// and serialization across the simulated network.
type Packet struct {
	// IP header.
	SrcIP Addr
	DstIP Addr
	Proto byte
	TTL   byte

	// Transport header (shared field layout for TCP and UDP).
	SrcPort uint16
	DstPort uint16

	// TCP-only fields.
	Seq      uint32
	Ack      uint32
	Flags    byte
	Window   uint16
	TSVal    uint32 // TCP timestamp option: sender jiffies
	TSEcr    uint32 // TCP timestamp option: echoed timestamp
	Checksum uint16

	Payload []byte

	// Dst is the destination cache entry the packet inherited from its
	// originating socket (see paper §V-D); nil for forwarded packets.
	Dst *DstEntry

	// Trace carries the causal trace context of the migration (or
	// failover checkpoint stream) this packet belongs to. It is
	// out-of-band simulator metadata: not part of the canonical wire
	// encoding, never checksummed, and nil for ordinary application
	// traffic. One immutable TraceRef is shared by every packet of a
	// stamped socket (a pointer, not two inline words, so the common
	// unstamped path pays one nil word per packet); Clone's struct copy
	// preserves it across hops.
	Trace *TraceRef

	// Class tags the traffic class the packet belongs to. Like Trace it
	// is out-of-band metadata — never marshalled, never checksummed —
	// used by NIC accounting to break migration traffic out of the
	// aggregate: the post-copy page-pull channel stamps ClassPagePull so
	// the degraded-window analysis can see exactly how much pull traffic
	// shared the wire with the application.
	Class byte

	// released guards the free list against double-Release (see
	// Release). Out-of-band; never marshalled.
	released bool

	// home is the Pool that minted the packet and takes it back on
	// Release; nil for handle-less and literal packets. Clone copies it,
	// so a payload's holders all share one home.
	home *Pool
}

// Traffic classes (Packet.Class).
const (
	// ClassDefault is ordinary application or control traffic.
	ClassDefault byte = iota
	// ClassPagePull marks post-copy demand-pull and prefetch traffic on
	// the migration control connection after the destination resumed.
	ClassPagePull
	// ClassCheckpoint marks checkpoint-transfer traffic on the migd
	// control connection: precopy deltas, the freeze image and chunk
	// streams. Post-copy restamps the connection to ClassPagePull at
	// handover, so the two classes partition migration traffic by phase.
	ClassCheckpoint
)

// TraceRef is a causal trace coordinate — the trace ID and the deciding
// span's ID, mirroring obs.TraceContext without importing it (netsim
// must stay obs-free). Treat as immutable once attached to a socket.
type TraceRef struct {
	Trace uint64
	Span  uint64
}

// DstEntry models a Linux IP destination cache entry: the resolved next
// hop for a flow. During local address translation the entry inherited
// from the peer's socket still points at the pre-migration address, so the
// translation filter must replace it (paper §V-D).
type DstEntry struct {
	NextHop Addr
	Iface   string
}

// headerBytes is the canonical encoded header size (a simplified fixed
// layout: 20-byte IP header plus a 20-byte transport header with a 12-byte
// timestamp option area, mirroring a typical TCP header with options).
const headerBytes = 52

// Len returns the total wire length of the packet in bytes, which drives
// the link-level transfer-time model.
func (p *Packet) Len() int { return headerBytes + len(p.Payload) }

// Clone returns a packet with a private header and a shared payload: the
// struct is copied, the payload buffer gains a holder. Every hop that
// needs its own packet clones — the write queue keeps the original while
// the clone travels, the broadcast router hands one to each node, the
// fault plane duplicates — and each may rewrite its header fields in
// place (netfilter hooks do) and FixChecksum without the siblings
// noticing. Payload bytes are immutable from the first transmit, so no
// clone needs its own. The destination cache entry is shared too:
// DstEntry values are immutable once published — translation filters
// replace the pointer, never the fields.
func (p *Packet) Clone() *Packet {
	q := p.home.getPacket()
	*q = *p
	q.released = false
	sharePayload(q.Payload)
	return q
}

// marshalHeader encodes the 52-byte canonical header into buf.
func (p *Packet) marshalHeader(buf []byte) {
	binary.BigEndian.PutUint32(buf[0:], uint32(p.SrcIP))
	binary.BigEndian.PutUint32(buf[4:], uint32(p.DstIP))
	buf[8] = p.Proto
	buf[9] = p.TTL
	binary.BigEndian.PutUint16(buf[10:], p.SrcPort)
	binary.BigEndian.PutUint16(buf[12:], p.DstPort)
	binary.BigEndian.PutUint32(buf[14:], p.Seq)
	binary.BigEndian.PutUint32(buf[18:], p.Ack)
	buf[22] = p.Flags
	binary.BigEndian.PutUint16(buf[23:], p.Window)
	binary.BigEndian.PutUint32(buf[25:], p.TSVal)
	binary.BigEndian.PutUint32(buf[29:], p.TSEcr)
	binary.BigEndian.PutUint16(buf[33:], p.Checksum)
	for i := 35; i < headerBytes; i++ {
		buf[i] = 0
	}
}

// Marshal encodes the packet into the canonical wire format.
func (p *Packet) Marshal() []byte { return p.AppendMarshal(make([]byte, 0, p.Len())) }

// AppendMarshal appends the packet's canonical wire format to dst and
// returns the extended slice.
func (p *Packet) AppendMarshal(dst []byte) []byte {
	n := len(dst)
	dst = slices.Grow(dst, p.Len())[:n+headerBytes]
	p.marshalHeader(dst[n:])
	return append(dst, p.Payload...)
}

// Unmarshal decodes a packet from the canonical wire format. The packet
// and its payload come from pl, so a restored socket queue owns buffers
// that Clone may share and Release recycles like any other.
func (pl *Pool) Unmarshal(buf []byte) (*Packet, error) {
	if len(buf) < headerBytes {
		return nil, fmt.Errorf("netsim: short packet: %d bytes", len(buf))
	}
	p := pl.getPacket()
	*p = Packet{
		home:     pl,
		SrcIP:    Addr(binary.BigEndian.Uint32(buf[0:])),
		DstIP:    Addr(binary.BigEndian.Uint32(buf[4:])),
		Proto:    buf[8],
		TTL:      buf[9],
		SrcPort:  binary.BigEndian.Uint16(buf[10:]),
		DstPort:  binary.BigEndian.Uint16(buf[12:]),
		Seq:      binary.BigEndian.Uint32(buf[14:]),
		Ack:      binary.BigEndian.Uint32(buf[18:]),
		Flags:    buf[22],
		Window:   binary.BigEndian.Uint16(buf[23:]),
		TSVal:    binary.BigEndian.Uint32(buf[25:]),
		TSEcr:    binary.BigEndian.Uint32(buf[29:]),
		Checksum: binary.BigEndian.Uint16(buf[33:]),
	}
	if body := buf[headerBytes:]; len(body) > 0 {
		p.Payload = pl.GetPayload(len(body))
		copy(p.Payload, body)
	}
	return p, nil
}

// Unmarshal is the handle-less Pool.Unmarshal.
func Unmarshal(buf []byte) (*Packet, error) { return (*Pool)(nil).Unmarshal(buf) }

// ComputeChecksum returns the Internet checksum over the packet's
// pseudo-header and payload with the checksum field zeroed, following RFC
// 1071 folding. Translation filters must recompute it after rewriting
// addresses (paper §V-D). Nothing is marshalled: the header's 16-bit words
// are summed straight from the fields and the payload in place (the
// header length is even, so the two partial sums compose exactly as in
// the single-buffer form).
//
// The sum is kept unfolded in a wide accumulator and folded once, which
// reduces it modulo 0xFFFF (to 0 only if every byte was 0). Under that
// reduction a 32-bit field at an even offset counts as itself
// (2^16 ≡ 1), and a field at an odd offset — the run Window, TSVal,
// TSEcr behind the one-byte Flags at offset 22 — counts as itself times
// 2^8, as do Flags and Proto, the high bytes of their words. Bytes 33–51
// (the zeroed checksum and the option padding) add nothing.
func (p *Packet) ComputeChecksum() uint16 {
	sum := uint64(p.SrcIP) + uint64(p.DstIP) + uint64(p.TTL) +
		uint64(p.SrcPort) + uint64(p.DstPort) + uint64(p.Seq) + uint64(p.Ack) +
		(uint64(p.Proto)+uint64(p.Flags)+uint64(p.Window)+uint64(p.TSVal)+uint64(p.TSEcr))<<8 +
		sumWords(p.Payload)
	for sum>>16 != 0 {
		sum = (sum & 0xFFFF) + (sum >> 16)
	}
	return ^uint16(sum)
}

// sumWords adds b's big-endian 16-bit words (an odd trailing byte padded
// with zero) without folding, 32 bytes per step into two accumulators so
// the adds of one load do not wait on the last. Each 8-byte load
// contributes two 32-bit halves, so even a 64 KiB buffer stays far below
// overflow.
func sumWords(b []byte) uint64 {
	var s0, s1 uint64
	for len(b) >= 32 {
		v0, v1 := binary.BigEndian.Uint64(b), binary.BigEndian.Uint64(b[8:])
		v2, v3 := binary.BigEndian.Uint64(b[16:]), binary.BigEndian.Uint64(b[24:])
		s0 += v0>>32 + v0&0xFFFFFFFF + v2>>32 + v2&0xFFFFFFFF
		s1 += v1>>32 + v1&0xFFFFFFFF + v3>>32 + v3&0xFFFFFFFF
		b = b[32:]
	}
	sum := s0 + s1
	for len(b) >= 8 {
		v := binary.BigEndian.Uint64(b)
		sum += v>>32 + v&0xFFFFFFFF
		b = b[8:]
	}
	if len(b) >= 4 {
		sum += uint64(binary.BigEndian.Uint32(b))
		b = b[4:]
	}
	if len(b) >= 2 {
		sum += uint64(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint64(b[0]) << 8
	}
	return sum
}

// FixChecksum recomputes and stores the checksum.
func (p *Packet) FixChecksum() { p.Checksum = p.ComputeChecksum() }

// ChecksumOK reports whether the stored checksum matches the content.
func (p *Packet) ChecksumOK() bool { return p.Checksum == p.ComputeChecksum() }

// FlagString renders TCP flags, e.g. "SYN|ACK".
func FlagString(f byte) string {
	s := ""
	add := func(bit byte, name string) {
		if f&bit != 0 {
			if s != "" {
				s += "|"
			}
			s += name
		}
	}
	add(FlagSYN, "SYN")
	add(FlagFIN, "FIN")
	add(FlagRST, "RST")
	add(FlagPSH, "PSH")
	add(FlagACK, "ACK")
	if s == "" {
		s = "-"
	}
	return s
}

// String renders a one-line summary used by the tracer.
func (p *Packet) String() string {
	proto := "UDP"
	if p.Proto == ProtoTCP {
		proto = "TCP"
	}
	return fmt.Sprintf("%s %s:%d > %s:%d %s seq=%d ack=%d len=%d",
		proto, p.SrcIP, p.SrcPort, p.DstIP, p.DstPort, FlagString(p.Flags), p.Seq, p.Ack, len(p.Payload))
}

// FlowKey identifies one direction of a transport flow; it is the match
// key used by capture filters (remote IP, remote port, local port — paper
// §III-B uses exactly this triple, and we add the protocol).
type FlowKey struct {
	RemoteIP   Addr
	RemotePort uint16
	LocalPort  uint16
	Proto      byte
}

// MatchesIncoming reports whether an incoming packet belongs to the flow.
func (k FlowKey) MatchesIncoming(p *Packet) bool {
	return p.Proto == k.Proto && p.SrcIP == k.RemoteIP &&
		p.SrcPort == k.RemotePort && p.DstPort == k.LocalPort
}
