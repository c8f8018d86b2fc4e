package ckpt

import "dvemig/internal/proc"

// The whole package runs with stale frames poisoned: applying a page
// directory over a shadow space leaves placeholders holding first-round
// frames, and anything that reads one instead of faulting sees 0xDB.
func init() { proc.PoisonStaleFrames() }
