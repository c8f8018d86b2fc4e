package netstack

import (
	"dvemig/internal/netsim"
	"dvemig/internal/wire"
)

// The whole package runs with released payloads poisoned: a handler that
// kept a lent Datagram.Payload, or a slice decoded out of one, past its
// return reads 0xDB and fails whichever test drove it. So does whoever
// kept a send buffer the socket gave back to the wire pool.
func init() {
	netsim.PoisonReleasedPayloads()
	wire.PoisonGiven()
}
