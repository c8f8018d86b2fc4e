package eval

import "dvemig/internal/wire"

// The whole package runs with buffers given to the wire pool poisoned
// (0xDB): its parallel batteries are where cells on different goroutines
// share the pool, so a cell that kept a buffer it gave back would corrupt
// another cell's migration and move its fixed-point line.
func init() { wire.PoisonGiven() }
