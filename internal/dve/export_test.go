package dve

import (
	"dvemig/internal/netsim"
	"dvemig/internal/proc"
)

// The package's tests run with released packet payloads and retired
// page chunks poisoned (0xDB): Run retires the cluster's packets and
// its processes' page memory to the process-wide reserves, so whatever
// kept a lent payload past its loan, or read a packet or a page after
// Run, reads garbage at once.
func init() {
	netsim.PoisonReleasedPayloads()
	proc.PoisonRetired()
}
