package xlat

import "dvemig/internal/netsim"

// The whole package runs with released payloads poisoned: a handler that
// kept a lent Datagram.Payload, or a slice decoded out of one, past its
// return reads 0xDB and fails whichever test drove it.
func init() { netsim.PoisonReleasedPayloads() }
