package dve

import "dvemig/internal/netsim"

// The package's tests run with released packet payloads poisoned (0xDB):
// Run retires the cluster's packets to the process-wide reserve, so
// whatever kept a lent payload past its loan, or read one after Run,
// reads garbage at once.
func init() { netsim.PoisonReleasedPayloads() }
