package sockmig

import "dvemig/internal/wire"

// The whole package runs with lent deltas poisoned: a test that kept a
// tracker's delta past the tracker's next call, or past Release (the
// arena goes back to the wire pool), reads 0xDB.
func init() {
	PoisonLentDeltas()
	wire.PoisonGiven()
}
