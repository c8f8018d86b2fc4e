package sockmig

import (
	"testing"
	"time"
)

// BenchmarkSockDeltaRound is the socket layer's rung: one incremental
// round over 1024 connections of which one in eight received data since
// the last (the application drained the round before), encoded at the
// source and folded into the destination's store — the path a precopy
// round takes, traffic excluded.
func BenchmarkSockDeltaRound(b *testing.B) {
	const socks = 1024
	env := newEnv(b, socks)
	tr, store := NewTracker(), NewStore()
	enc := tr.Delta(env.p, false).Encode()
	if err := store.ApplyEncoded(enc); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tcp, _ := env.p.Sockets()
		for _, sk := range tcp {
			sk.Discard() // what the last round's data left unread
		}
		for c := 0; c < socks; c += 8 {
			if err := env.clients[c].Send(payload); err != nil {
				b.Fatal(err)
			}
		}
		env.c.Sched.RunFor(10 * time.Millisecond)
		b.StartTimer()
		d := tr.Delta(env.p, false)
		if len(d.Socks) != socks/8 {
			b.Fatalf("round carries %d sockets, want %d", len(d.Socks), socks/8)
		}
		enc = d.EncodeInto(enc)
		if err := store.ApplyEncoded(enc); err != nil {
			b.Fatal(err)
		}
	}
}
