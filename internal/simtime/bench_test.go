package simtime

import (
	"testing"
	"time"
)

// The simtime rung of the per-layer benchmark ladder (ROADMAP 1(a)): the
// queue under the access patterns the simulations generate.

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
// queue depth: 100 zone-server tickers at 50 ms over 200 short-lived
// in-flight events at random offsets, so the queue stays a few hundred
// deep (the run's pending count ranges 150–340) and every step is one
// pop plus one push. Its 499 µs ticker stagger is not the run's phase
// structure: there the zone servers tick co-phased, and 74 % of events
// share the instant of the event before them (BenchmarkTickLane).
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

// tickLaneNet is BenchmarkTickLane's network: five NIC-like lanes whose
// deliveries are serialised behind each lane's last transmission, as
// NIC.Send does, so every lane is armed in time order.
type tickLaneNet struct {
	s     *Scheduler
	lanes [5]Lane
	busy  [5]Time
}

// send queues one 1500-byte frame's delivery on lane k: 12 µs on a
// gigabit wire behind the lane's horizon, then 100 µs of latency.
func (n *tickLaneNet) send(k int) {
	start := max(n.s.Now(), n.busy[k])
	n.busy[k] = start + 12*time.Microsecond
	n.s.AtCallLane(&n.lanes[k], n.busy[k]+100*time.Microsecond, "netsim.deliver", tickLaneDeliver, n, nil)
}

func tickLaneDeliver(_, _ any) {}

// BenchmarkTickLane is the DVE run's shape: 100 co-phased 50 ms
// zone-server tickers, which share one instant and one lane, and 80
// one-shot packet deliveries a round — the first 80 servers send one
// frame per tick through the five nodes' NIC lanes — so ticks are the
// larger share of events and most events fire at the instant of the one
// before them.
func BenchmarkTickLane(b *testing.B) {
	s := NewScheduler()
	net := &tickLaneNet{s: s}
	for i := 0; i < 100; i++ {
		fn := func() {}
		if i < 80 {
			k := i % len(net.lanes)
			fn = func() { net.send(k) }
		}
		NewTicker(s, 50*time.Millisecond, "zone.loop", fn).Start()
	}
	s.RunFor(100 * time.Millisecond) // free list warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.step()
	}
	if n := s.Pending(); n < 100 || n > 180 {
		b.Fatalf("tick lane model drifted to %d pending, want 100–180", n)
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
			s.AtCallLane(nil, at, "burst", fire, nil, &ids[j])
		}
		s.Run()
		if next != len(ids) {
			b.Fatalf("%d of %d burst events fired", next, len(ids))
		}
	}
}
