package eval

import (
	"dvemig/internal/netsim"
	"dvemig/internal/wire"
)

// The whole package runs with buffers given to the wire pool and
// released packet payloads poisoned (0xDB): its parallel batteries are
// where cells on different goroutines share the wire pool and the packet
// reserve, so a cell that kept a buffer it gave back, or read a packet
// its end had retired, would corrupt another cell's run and move its
// fixed-point line.
func init() {
	wire.PoisonGiven()
	netsim.PoisonReleasedPayloads()
}
