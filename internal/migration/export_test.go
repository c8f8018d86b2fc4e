package migration

import (
	"os"
	"testing"
)

// TestMain runs the whole package with the lend-contract tripwire on:
// Conn overwrites every lent payload with 0xDB the moment its handler
// returns, so any handler that kept a reference into the receive buffer
// fails the precopy / post-copy / hybrid / guardian tests at once.
func TestMain(m *testing.M) {
	poisonLent = true
	os.Exit(m.Run())
}
