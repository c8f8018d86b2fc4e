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

// watchStreams records every checkpoint stream of the test's migrations
// at both ends: what the source handed to sendPayload and what the
// destination reassembled, in order.
func watchStreams(t *testing.T) (sent, got *[][]byte) {
	t.Helper()
	sent, got = new([][]byte), new([][]byte)
	streamHook = func(isSent bool, kind byte, payload []byte) {
		rec := append([]byte{kind}, payload...)
		if isSent {
			*sent = append(*sent, rec)
		} else {
			*got = append(*got, rec)
		}
	}
	t.Cleanup(func() { streamHook = nil })
	return sent, got
}
