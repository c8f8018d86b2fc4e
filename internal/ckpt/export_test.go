package ckpt

import "dvemig/internal/proc"

// The whole package runs with stale frames poisoned: applying a page
// directory over a shadow space leaves placeholders holding first-round
// frames, and anything that reads one instead of faulting sees 0xDB. A
// memory tracker poisons the page list it lent last before building the
// next, so a holder that kept one reads index ^0 and 0xDB content. A
// retired address space's chunks are overwritten with 0xDB as they go
// to the page reserve, so a slab drawn from it must be zeroed on take.
func init() {
	proc.PoisonStaleFrames()
	proc.PoisonRetired()
	PoisonLentMemDeltas()
}
