package proc

// The whole package runs with stale frames poisoned: a reader that
// reached the frame a placeholder keeps, instead of faulting, sees 0xDB
// where the differential tests expect a fault or the page's content.
func init() { PoisonStaleFrames() }
