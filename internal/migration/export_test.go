package migration

import (
	"os"
	"testing"

	"dvemig/internal/ckpt"
	"dvemig/internal/netsim"
	"dvemig/internal/proc"
	"dvemig/internal/sockmig"
	"dvemig/internal/wire"
)

// TestMain runs the whole package with the lend-contract tripwire on:
// Conn overwrites every lent payload with 0xDB the moment its handler
// returns, so any handler that kept a reference into the receive buffer
// fails the precopy / post-copy / hybrid / guardian tests at once. The
// packet pool does the same to every released payload, for the UDP
// sockets' lent datagrams, and the page table to the stale frame a
// placeholder keeps (hybrid's re-shipped pages): whoever read one instead
// of faulting sees 0xDB too. A socket tracker overwrites the delta it lent
// last with 0xDB before building the next, and a memory tracker the page
// list it lent last with sentinel entries (index ^0, 0xDB content). Every
// buffer given to the wire pool (send, receive and reassembly buffers, a
// tracker's arena) is overwritten with 0xDB as it goes in.
func TestMain(m *testing.M) {
	poisonLent = true
	netsim.PoisonReleasedPayloads()
	proc.PoisonStaleFrames()
	sockmig.PoisonLentDeltas()
	ckpt.PoisonLentMemDeltas()
	wire.PoisonGiven()
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

// encode is the final image's wire form from parts already encoded (the
// engine encodes them in place, sendFinal).
func (m finalImage) encode(kind byte) []byte {
	lit := func(p []byte) func([]byte) []byte {
		return func(b []byte) []byte { return append(b, p...) }
	}
	b, _, _ := appendFinalImage(nil, kind, m.FreezeStart, lit(m.Image), lit(m.Mem), lit(m.SockDelta))
	return b
}

// connFuncs is a Conn owner made of two funcs, either of which may be
// nil: the adapter for tests that watch a connection with no outbound or
// inbound behind it.
type connFuncs struct {
	onMsg   func(t MsgType, payload []byte)
	onClose func()
}

func (f *connFuncs) frame(_ *Conn, t MsgType, payload []byte) {
	if f.onMsg != nil {
		f.onMsg(t, payload)
	}
}

func (f *connFuncs) closed(*Conn) {
	if f.onClose != nil {
		f.onClose()
	}
}

// funcs installs a connFuncs as c's owner, once, and returns it.
func (c *Conn) funcs() *connFuncs {
	f, ok := c.owner.(*connFuncs)
	if !ok {
		f = &connFuncs{}
		c.owner = f
	}
	return f
}
