package simtime

import (
	"testing"
	"time"
)

// The simtime rung of the per-layer benchmark ladder (ROADMAP 1(a)): the
// queue under the three access patterns the simulations generate.

// holdFlight is one in-flight packet/ACK-like event that re-arms itself
// 50–150 µs out.
type holdFlight struct {
	s *Scheduler
	r *Rand
}

func holdFlightFire(a0, _ any) {
	f := a0.(*holdFlight)
	f.s.AfterCall(50*time.Microsecond+Duration(f.r.Intn(100_000)), "net.deliver", holdFlightFire, f, nil)
}

// BenchmarkHold is the classic hold model at the paper-scale DVE run's
// measured mix: 100 zone-server tickers at 50 ms over 200 short-lived
// in-flight events, so the queue stays a few hundred deep (the run's
// pending count ranges 150–340) and every step is one pop plus one push.
func BenchmarkHold(b *testing.B) {
	s := NewScheduler()
	for i := 0; i < 100; i++ {
		tk := NewTicker(s, 50*time.Millisecond, "zone.loop", func() {})
		s.After(Duration(i)*499*time.Microsecond, "stagger", tk.Start)
	}
	f := &holdFlight{s: s, r: NewRand(1)}
	for i := 0; i < 200; i++ {
		holdFlightFire(f, nil)
	}
	s.RunFor(100 * time.Millisecond) // all tickers started, free list warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.step()
	}
	if s.Pending() != 300 {
		b.Fatalf("hold model drifted to %d pending, want 300", s.Pending())
	}
}

// BenchmarkCancelMiddle is the TCP retransmission timer's pattern against
// a 1024-deep queue: arm at an instant in the middle of what is pending,
// cancel it before it fires.
func BenchmarkCancelMiddle(b *testing.B) {
	s := NewScheduler()
	for i := 0; i < 1024; i++ {
		s.After(Duration(i+1)*time.Second, "backdrop", func() {})
	}
	fn := func() {}
	r := NewRand(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Cancel(s.After(Duration(r.Intn(1024))*time.Second+time.Millisecond, "tcp.rto", fn))
	}
	if s.Pending() != 1024 {
		b.Fatalf("%d pending, want 1024", s.Pending())
	}
}

// BenchmarkSameInstantBurst schedules 1000 events for one instant (a
// broadcast fan-out, a collective freeze) and runs them; seq alone orders
// them, and they must fire FIFO.
func BenchmarkSameInstantBurst(b *testing.B) {
	s := NewScheduler()
	next := 0
	fire := func(_, a1 any) {
		if *a1.(*int) != next {
			b.Fatalf("burst fired %d, want %d (not FIFO)", *a1.(*int), next)
		}
		next++
	}
	ids := make([]int, 1000)
	for i := range ids {
		ids[i] = i
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next = 0
		at := s.Now() + time.Millisecond
		for j := range ids {
			s.AtCall(at, "burst", fire, nil, &ids[j])
		}
		s.Run()
		if next != len(ids) {
			b.Fatalf("%d of %d burst events fired", next, len(ids))
		}
	}
}
