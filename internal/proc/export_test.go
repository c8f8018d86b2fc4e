package proc

// The whole package runs with stale frames and retired chunks poisoned:
// a reader that reached the frame a placeholder keeps, instead of
// faulting, sees 0xDB where the differential tests expect a fault or the
// page's content, and so does one that reads a chunk the page reserve
// handed out without zeroing it.
func init() {
	PoisonStaleFrames()
	PoisonRetired()
}
