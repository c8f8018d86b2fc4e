package netsim

import "encoding/binary"

// AuditPools runs f with the struct-pool audit installed and returns how
// many packets f's simulation obtained (NewPacket, Clone) and released.
// The audit is process-global and unsynchronised: the caller must not run
// simulations on other goroutines meanwhile.
func AuditPools(f func()) (obtained, released uint64) {
	poolAudit = new(struct{ obtained, released uint64 })
	defer func() { poolAudit = nil }()
	f()
	return poolAudit.obtained, poolAudit.released
}

// PayloadHolders reports the holder count of a pooled payload buffer, 0
// for a foreign one.
func PayloadHolders(b []byte) int {
	if h := holders(b); h != nil {
		return int(binary.LittleEndian.Uint32(h))
	}
	return 0
}
