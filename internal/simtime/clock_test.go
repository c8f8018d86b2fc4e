package simtime

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"dvemig/internal/simprof"
)

func TestSchedulerOrdersEventsByTime(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.After(30*time.Millisecond, "c", func() { got = append(got, 3) })
	s.After(10*time.Millisecond, "a", func() { got = append(got, 1) })
	s.After(20*time.Millisecond, "b", func() { got = append(got, 2) })
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
	if s.Now() != 30*time.Millisecond {
		t.Fatalf("clock = %v, want 30ms", s.Now())
	}
}

func TestSchedulerSameInstantIsFIFO(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(5*time.Millisecond, "tie", func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	e := s.After(time.Millisecond, "x", func() { fired = true })
	s.Cancel(e)
	s.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if !e.Canceled() {
		t.Fatal("event not marked canceled")
	}
}

func TestSchedulerRunUntilAdvancesClock(t *testing.T) {
	s := NewScheduler()
	n := 0
	s.After(10*time.Millisecond, "a", func() { n++ })
	s.After(50*time.Millisecond, "b", func() { n++ })
	s.RunUntil(20 * time.Millisecond)
	if n != 1 {
		t.Fatalf("ran %d events, want 1", n)
	}
	if s.Now() != 20*time.Millisecond {
		t.Fatalf("clock = %v, want 20ms", s.Now())
	}
	s.RunFor(40 * time.Millisecond)
	if n != 2 {
		t.Fatalf("ran %d events, want 2", n)
	}
}

func TestSchedulerPastSchedulingPanics(t *testing.T) {
	s := NewScheduler()
	s.After(10*time.Millisecond, "a", func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(5*time.Millisecond, "past", func() {})
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			s.After(time.Millisecond, "rec", rec)
		}
	}
	s.After(time.Millisecond, "rec", rec)
	s.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if s.Now() != 100*time.Millisecond {
		t.Fatalf("clock = %v, want 100ms", s.Now())
	}
}

func TestSchedulerNextEventTime(t *testing.T) {
	s := NewScheduler()
	if _, ok := s.NextEventTime(); ok {
		t.Fatal("empty scheduler reported a next event")
	}
	s.After(7*time.Millisecond, "a", func() {})
	when, ok := s.NextEventTime()
	if !ok || when != 7*time.Millisecond {
		t.Fatalf("next event = %v,%v; want 7ms,true", when, ok)
	}
}

func TestJiffies(t *testing.T) {
	if j := Jiffies(0, 100); j != 100 {
		t.Fatalf("Jiffies(0,100) = %d", j)
	}
	if j := Jiffies(25*time.Millisecond, 0); j != 2 {
		t.Fatalf("Jiffies(25ms,0) = %d, want 2", j)
	}
	// Different boot offsets observe different jiffies for the same instant,
	// the property that forces timestamp adjustment during socket migration.
	a := Jiffies(time.Second, 1000)
	b := Jiffies(time.Second, 5000)
	if b-a != 4000 {
		t.Fatalf("skew = %d, want 4000", b-a)
	}
}

func TestTicker(t *testing.T) {
	s := NewScheduler()
	n := 0
	tk := NewTicker(s, 10*time.Millisecond, "tick", func() { n++ })
	tk.Start()
	s.RunUntil(55 * time.Millisecond)
	if n != 5 {
		t.Fatalf("ticks = %d, want 5", n)
	}
	tk.Stop()
	s.RunUntil(200 * time.Millisecond)
	if n != 5 {
		t.Fatalf("ticker fired after Stop: %d", n)
	}
	tk.Start()
	s.RunUntil(230 * time.Millisecond)
	if n != 8 {
		t.Fatalf("restarted ticker ticks = %d, want 8", n)
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	s := NewScheduler()
	n := 0
	var tk *Ticker
	tk = NewTicker(s, time.Millisecond, "tick", func() {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	tk.Start()
	s.Run()
	if n != 3 {
		t.Fatalf("ticks = %d, want 3", n)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(43)
	same := true
	for i := 0; i < 10; i++ {
		if NewRand(42).Uint64() == c.Uint64() && i > 0 {
			continue
		}
		same = false
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(7)
	if err := quick.Check(func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRandPermIsPermutation(t *testing.T) {
	r := NewRand(11)
	if err := quick.Check(func(n uint8) bool {
		m := int(n % 64)
		p := r.Perm(m)
		if len(p) != m {
			return false
		}
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExpDurationPositiveAndBounded(t *testing.T) {
	r := NewRand(13)
	mean := 10 * time.Millisecond
	for i := 0; i < 10000; i++ {
		d := r.ExpDuration(mean)
		if d < 0 || d > 100*mean {
			t.Fatalf("ExpDuration out of bounds: %v", d)
		}
	}
}

func TestZeroSeedRemapped(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero-seeded PRNG stuck at zero")
	}
}

func TestSchedulerOrderingProperty(t *testing.T) {
	// For any set of delays, events run in nondecreasing time order and
	// same-time events preserve scheduling order; canceled events never run.
	f := func(delays []uint16, cancelMask []bool) bool {
		s := NewScheduler()
		type fired struct {
			at  Time
			seq int
		}
		var order []fired
		var events []*Event
		for i, d := range delays {
			i := i
			at := Time(d) * time.Millisecond
			events = append(events, s.At(at, "p", func() {
				order = append(order, fired{s.Now(), i})
			}))
		}
		canceled := map[int]bool{}
		for i, c := range cancelMask {
			if c && i < len(events) {
				s.Cancel(events[i])
				canceled[i] = true
			}
		}
		s.Run()
		want := 0
		for i := range delays {
			if !canceled[i] {
				want++
			}
		}
		if len(order) != want {
			return false
		}
		for k := 1; k < len(order); k++ {
			if order[k].at < order[k-1].at {
				return false
			}
			if order[k].at == order[k-1].at && order[k].seq < order[k-1].seq {
				return false // FIFO among ties broken
			}
		}
		for _, o := range order {
			if canceled[o.seq] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestTickerStartAligned pins the grid alignment StartAligned
// guarantees: no matter when the ticker is armed, ticks land on whole
// multiples of the period — the anchor that makes sampling instants
// independent of construction order.
func TestTickerStartAligned(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	tk := NewTicker(s, 100*time.Millisecond, "aligned", func() { fired = append(fired, s.Now()) })
	s.RunUntil(150 * time.Millisecond) // arm off-grid
	tk.StartAligned()
	s.RunUntil(450 * time.Millisecond)
	tk.Stop()
	want := []Time{200 * time.Millisecond, 300 * time.Millisecond, 400 * time.Millisecond}
	if len(fired) != len(want) {
		t.Fatalf("ticks at %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("ticks at %v, want %v", fired, want)
		}
	}
	// Starting exactly on the grid still skips to the *next* multiple —
	// a tick at the current instant would sample a half-built window.
	fired = nil
	s.RunUntil(500 * time.Millisecond)
	tk.StartAligned()
	s.RunUntil(650 * time.Millisecond)
	tk.Stop()
	if len(fired) != 1 || fired[0] != 600*time.Millisecond {
		t.Fatalf("on-grid restart ticks at %v, want [600ms]", fired)
	}
}

// TestLanePendingCountsQueuedEvents pins the pending depth to events,
// not heap slots: three co-phased tickers share one lane (one slot,
// three events), the profiler's depth sees all three, and stopping the
// ticker that waits mid-lane, then the rest, leaves nothing pending.
func TestLanePendingCountsQueuedEvents(t *testing.T) {
	s := NewScheduler()
	prof := simprof.New(1)
	s.Prof = prof.Loop("lanes")
	var tk [3]*Ticker
	for i := range tk {
		tk[i] = NewTicker(s, 10*time.Millisecond, fmt.Sprintf("tick.%d", i), func() {})
		tk[i].Start()
	}
	if s.Pending() != 3 || len(s.queue) != 1 {
		t.Fatalf("3 co-phased tickers: %d pending in %d slots, want 3 in 1", s.Pending(), len(s.queue))
	}
	s.RunFor(25 * time.Millisecond)
	if got := prof.Report().EventLoopTotal.PendingMax; got != 3 {
		t.Fatalf("profiled pending depth %d, want 3", got)
	}
	if tk[1].ev == nil || tk[1].ev.index != -1 {
		t.Fatal("the middle ticker's tick is not waiting mid-lane")
	}
	tk[1].Stop()
	if err := s.checkQueue(); err != nil {
		t.Fatal(err)
	}
	if s.Pending() != 2 {
		t.Fatalf("%d pending after stopping one of three tickers, want 2", s.Pending())
	}
	tk[0].Stop()
	tk[2].Stop()
	if s.Pending() != 0 || len(s.PendingNames()) != 0 {
		t.Fatalf("stopped tickers leave %d pending: %v", s.Pending(), s.PendingNames())
	}
	if err := s.checkQueue(); err != nil {
		t.Fatal(err)
	}
}

// TestLaneLeakListedByName: an event waiting behind its lane's head is
// still named by the leak diagnostic.
func TestLaneLeakListedByName(t *testing.T) {
	s := NewScheduler()
	var l Lane
	nop := func(_, _ any) {}
	s.AtCallLane(nil, time.Millisecond, "plain", nop, nil, nil)
	s.AtCallLane(&l, 10*time.Millisecond, "lane.head", nop, nil, nil)
	s.AtCallLane(&l, 20*time.Millisecond, "lane.leak", nop, nil, nil)
	s.RunFor(5 * time.Millisecond)
	names := s.PendingNames()
	sort.Strings(names)
	if got := fmt.Sprint(names); got != "[lane.head lane.leak]" || s.Pending() != 2 {
		t.Fatalf("pending %d named %s, want [lane.head lane.leak]", s.Pending(), got)
	}
}
