package sockmig

// The whole package runs with lent deltas poisoned: a test that kept a
// tracker's delta past the tracker's next call reads 0xDB.
func init() { PoisonLentDeltas() }
