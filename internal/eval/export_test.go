package eval

import (
	"dvemig/internal/netsim"
	"dvemig/internal/proc"
	"dvemig/internal/wire"
)

// The whole package runs with buffers given to the wire pool, released
// packet payloads and retired page chunks poisoned (0xDB): its parallel
// batteries are where cells on different goroutines share the wire
// pool, the packet reserve and the page reserve, so a cell that kept a
// buffer it gave back, read a packet its end had retired, or read a
// frame of a retired address space would corrupt another cell's run and
// move its fixed-point line.
func init() {
	wire.PoisonGiven()
	netsim.PoisonReleasedPayloads()
	proc.PoisonRetired()
}
