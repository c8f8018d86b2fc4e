package netsim

import "encoding/binary"

// AuditPools runs f with the packet audit installed and returns how many
// packets f's simulation obtained (NewPacket, Clone, Unmarshal — from any
// Pool or none) and released.
// The audit is process-global and unsynchronised: the caller must not run
// simulations on other goroutines meanwhile.
func AuditPools(f func()) (obtained, released uint64) {
	poolAudit = new(struct{ obtained, released uint64 })
	defer func() { poolAudit = nil }()
	f()
	return poolAudit.obtained, poolAudit.released
}

// ReserveLen reports how many packet structs and payload arrays the
// process-wide reserve holds.
func ReserveLen() (packets, payloads int) {
	reserve.Lock()
	defer reserve.Unlock()
	return len(reserve.packets), len(reserve.payloads)
}

// ReservePackets and ReservePayloads are the reserve's cap, in packet
// structs and payload arrays.
const ReservePackets, ReservePayloads = reservePackets, reservePayloads

// EmptyReserve drops everything the reserve holds, so a test starts from
// a known reserve. No simulation may run on another goroutine meanwhile.
func EmptyReserve() {
	reserve.Lock()
	defer reserve.Unlock()
	reserve.packets, reserve.payloads = nil, nil
}

// PayloadHolders reports the holder count of a pooled payload buffer, 0
// for a foreign one.
func PayloadHolders(b []byte) int {
	if h := holders(b); h != nil {
		return int(binary.LittleEndian.Uint32(h))
	}
	return 0
}

// HomeOf returns the Pool that minted p, nil for a handle-less or literal
// packet.
func HomeOf(p *Packet) *Pool { return p.home }

// ReferenceChecksum is the oracle for ComputeChecksum: marshal the whole
// packet with the checksum field zeroed and sum the buffer's 16-bit words
// one at a time, RFC 1071 as written.
func ReferenceChecksum(p *Packet) uint16 {
	saved := p.Checksum
	p.Checksum = 0
	b := p.Marshal()
	p.Checksum = saved
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i:]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xFFFF) + (sum >> 16)
	}
	return ^uint16(sum)
}
