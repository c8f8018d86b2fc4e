package netsim

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzPacketUnmarshal: arbitrary bytes must never panic the wire
// decoder, and any buffer it accepts must survive a marshal/unmarshal
// roundtrip bit-identically — the property the snapshot queues rely on.
func FuzzPacketUnmarshal(f *testing.F) {
	p := &Packet{
		SrcIP: MakeAddr(10, 0, 0, 1), DstIP: MakeAddr(10, 0, 0, 2),
		Proto: ProtoTCP, TTL: 64, SrcPort: 1234, DstPort: 80,
		Seq: 42, Ack: 7, Flags: FlagACK, Window: 65535,
		TSVal: 100, TSEcr: 99, Payload: []byte("hello"),
	}
	p.FixChecksum()
	f.Add(p.Marshal())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 34))
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := Unmarshal(data)
		if err != nil {
			return
		}
		again, err := Unmarshal(q.Marshal())
		if err != nil {
			t.Fatalf("re-unmarshal of marshaled packet failed: %v", err)
		}
		if !bytes.Equal(again.Marshal(), q.Marshal()) {
			t.Fatal("marshal/unmarshal not a fixpoint")
		}
	})
}

// FuzzChecksum: the field-direct ComputeChecksum agrees with the
// marshal-based oracle on any header and payload. The first 35 input
// bytes are the header fields in wire order (checksum included, to show
// it is ignored), the rest is the payload.
func FuzzChecksum(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 35+33))
	f.Add(append(bytes.Repeat([]byte{0x80, 0x01}, 18), bytes.Repeat([]byte{0xAB}, 1461)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var hdr [35]byte
		n := copy(hdr[:], data)
		p := &Packet{
			SrcIP: Addr(binary.BigEndian.Uint32(hdr[0:])), DstIP: Addr(binary.BigEndian.Uint32(hdr[4:])),
			Proto: hdr[8], TTL: hdr[9],
			SrcPort: binary.BigEndian.Uint16(hdr[10:]), DstPort: binary.BigEndian.Uint16(hdr[12:]),
			Seq: binary.BigEndian.Uint32(hdr[14:]), Ack: binary.BigEndian.Uint32(hdr[18:]),
			Flags: hdr[22], Window: binary.BigEndian.Uint16(hdr[23:]),
			TSVal: binary.BigEndian.Uint32(hdr[25:]), TSEcr: binary.BigEndian.Uint32(hdr[29:]),
			Checksum: binary.BigEndian.Uint16(hdr[33:]),
			Payload:  data[n:],
		}
		if got, want := p.ComputeChecksum(), ReferenceChecksum(p); got != want {
			t.Fatalf("ComputeChecksum=%#x, reference=%#x for %v", got, want, p)
		}
		p.FixChecksum()
		if !p.ChecksumOK() {
			t.Fatal("FixChecksum did not round-trip")
		}
	})
}
