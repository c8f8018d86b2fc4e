package ckpt

import "dvemig/internal/proc"

// The whole package runs with stale frames poisoned: applying a page
// directory over a shadow space leaves placeholders holding first-round
// frames, and anything that reads one instead of faulting sees 0xDB. A
// memory tracker poisons the page list it lent last before building the
// next, so a holder that kept one reads index ^0 and 0xDB content.
func init() {
	proc.PoisonStaleFrames()
	PoisonLentMemDeltas()
}
