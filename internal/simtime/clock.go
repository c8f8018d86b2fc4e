// Package simtime provides the virtual time base of the simulated cluster:
// a discrete-event scheduler, a virtual clock, Linux-style jiffies with
// per-node skew, and a deterministic pseudo random number generator.
//
// Everything in this repository runs against simulated time. The event
// loop is single threaded, which makes every experiment bit-for-bit
// reproducible: benchmarks measure simulated milliseconds and simulated
// bytes, never wall-clock noise of the host machine.
package simtime

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"dvemig/internal/flight"
	"dvemig/internal/simprof"
)

// Duration is a span of virtual time. It reuses time.Duration so that the
// familiar constants (time.Millisecond etc.) can be used by callers.
type Duration = time.Duration

// Time is an absolute point in virtual time, measured as a Duration since
// the start of the simulation.
type Time = time.Duration

// JiffyPeriod is the length of one jiffy. Linux 2.6 with HZ=100 increments
// the jiffies counter every 10 milliseconds, which is the configuration the
// paper assumes for TCP timestamps.
const JiffyPeriod = 10 * time.Millisecond

// Event lifecycle states. An event is pending while it sits in the queue,
// firing while its callback runs, and dead once it has fired or been
// canceled. Dead events may be recycled by the scheduler's free list, so a
// retained *Event pointer must be dropped (niled) as soon as the holder
// learns the event fired or after the holder cancels it.
const (
	statePending uint8 = iota
	stateFiring
	stateDead
)

// Event is a scheduled callback.
//
// Ownership contract: once an event has fired or been canceled the pointer
// is dead and the struct may be reused for a future event. Holders that
// keep an *Event across callbacks (timers in sockets, leases, claims) must
// nil their reference when the callback runs and immediately after calling
// Cancel.
type Event struct {
	when Time
	seq  uint64           // tie-breaker for deterministic ordering
	fn   func(a0, a1 any) // called as fn(arg0, arg1)
	arg0 any              // At's func() rides here, run by callFunc
	arg1 any
	lane *Lane  // the lane this event heads or waits in, nil for a plain heap event
	next *Event // the event behind it in its lane
	// index shares next's 16 bytes, so the cache line a sift writes
	// index on is the one removeAt reads next from.
	index    int32 // slot in Scheduler.queue while it has one (Cancel's way in), else -1
	canceled bool
	state    uint8
	name     string
}

// Canceled reports whether the event has been canceled.
func (e *Event) Canceled() bool { return e.canceled }

// Lane is a FIFO of events whose (when, seq) never decreases: a
// producer that arms in time order (a NIC's deliveries, the tickers of
// one period) queues through it. Only the lane's head holds a heap slot;
// the events behind it wait on intrusive links, so arming at or after
// the lane's last instant is O(1) with no sift, and popping the head
// refills its slot with the next live event, which sifts down from
// there. An arm earlier than the lane's last instant becomes a plain
// heap event, so a Lane needs no promise from its producer. Canceling
// an event that waits behind the head only marks it dead; it is dropped
// when it reaches the head. The zero Lane is empty and ready; a
// producer embeds one by value, arms it on one scheduler only, and must
// not copy it while it holds events.
type Lane struct {
	tail *Event // the lane's last event, nil when the lane is empty
}

// slot is one queue entry. The ordering key is stored inline so sifting
// compares and moves 24-byte values without dereferencing the event; when
// is held unsigned (virtual time starts at zero and never rewinds, so the
// conversion preserves order) to make (when, seq) one 128-bit integer.
type slot struct {
	when uint64
	seq  uint64
	ev   *Event
}

// before reports a < b in (when, seq) order as 0 or 1: the borrow out of
// the 128-bit subtraction a-b. seq is unique per event, so the order is
// strict and total — two distinct slots never compare equal.
func before(a, b *slot) uint64 {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(a.when, b.when, borrow)
	return borrow
}

// siftUp places x at or above slot i of the binary min-heap, moving
// later parents down into the hole rather than swapping.
func (s *Scheduler) siftUp(i int, x slot) {
	q := s.queue
	for i > 0 {
		parent := (i - 1) / 2
		if before(&x, &q[parent]) == 0 {
			break
		}
		q[i] = q[parent]
		q[i].ev.index = int32(i)
		i = parent
	}
	q[i] = x
	x.ev.index = int32(i)
}

// siftDown places x at or below slot i, moving the earlier child up into
// the hole. The child is picked by adding the compare bit to its index,
// so the only data-dependent branch per level is the exit test.
func (s *Scheduler) siftDown(i int, x slot) {
	q := s.queue
	n := len(q)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n {
			child += int(before(&q[right], &q[child]))
		}
		if before(&q[child], &x) == 0 {
			break
		}
		q[i] = q[child]
		q[i].ev.index = int32(i)
		i = child
	}
	q[i] = x
	x.ev.index = int32(i)
}

// removeAt takes the event in slot i out of the queue. A lane head's
// slot passes to the first live event behind it (the dead ones before
// it are recycled), which is no earlier than the head (so no earlier
// than the head's parent either) and only sifts down. Otherwise the
// last slot fills the hole and sifts whichever way restores the heap
// (up when it came from another subtree and is earlier than the hole's
// parent). A lane event leaves with its links cleared, so a plain
// event's are nil whenever it is queued or pooled.
func (s *Scheduler) removeAt(i int) {
	e := s.queue[i].ev
	if nx := e.next; nx != nil {
		e.next = nil
		for nx != nil && nx.state != statePending {
			dead := nx
			nx = nx.next
			dead.lane, dead.next = nil, nil
			s.release(dead)
		}
		if nx != nil {
			s.nqueued--
			e.lane = nil
			s.siftDown(i, slot{when: uint64(nx.when), seq: nx.seq, ev: nx})
			return
		}
	}
	last := len(s.queue) - 1
	x := s.queue[last]
	s.queue[last] = slot{}
	s.queue = s.queue[:last]
	switch {
	case i == last:
	case i > 0 && before(&x, &s.queue[(i-1)/2]) != 0:
		s.siftUp(i, x)
	default:
		s.siftDown(i, x)
	}
	if l := e.lane; l != nil { // a lone head empties its lane; read after the sift, which needs no event
		l.tail = nil
		e.lane = nil
	}
}

// maxFreeEvents bounds the scheduler's event free list so that a burst of
// timers does not pin memory forever.
const maxFreeEvents = 4096

// Scheduler is a discrete-event simulator: a priority queue of events
// ordered by virtual time, with FIFO ordering among events scheduled for
// the same instant — the strict total order (when, seq), which alone
// fixes the run (DESIGN.md "Event queue"). The queue is a binary min-heap
// of value slots whose entries are plain events and lane heads (see
// Lane). Canceling a slotted event removes it eagerly (O(log n), found
// through Event.index) and recycles the struct through a free list, so
// heavy timer churn (arm/cancel per TCP ACK) neither grows the queue
// nor allocates per timer; an event waiting in a lane is marked dead in
// O(1) and recycled when its lane reaches it.
type Scheduler struct {
	now       Time
	seq       uint64
	queue     []slot
	nqueued   int                // live events waiting in lanes behind their heads
	tickLanes map[Duration]*Lane // each hosted by its period's first ticker
	nsteps    uint64
	ncancels  uint64
	serial    uint64
	stash     map[uint64]any // Stash's values not yet taken, by token
	free      []*Event

	// FR, when attached, records every event fire into the flight
	// recorder: virtual time, event name, and sequence number. Nil (the
	// default) costs one pointer comparison per step.
	FR *flight.Recorder

	// Prof, when attached, samples the wall-clock cost of every event
	// dispatch into the self-profiling plane, bucketed by the event
	// name's subsystem. It only reads the host clock — it never touches
	// virtual time, so profiled and unprofiled runs are bit-identical.
	// Nil (the default) costs two pointer comparisons per step.
	Prof *simprof.LoopProf
}

// NewScheduler returns a scheduler whose clock starts at zero.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Steps returns the number of events executed so far. Useful for asserting
// that simulations terminate.
func (s *Scheduler) Steps() uint64 { return s.nsteps }

// Cancels returns the number of pending events removed via Cancel so
// far (events already fired or already canceled do not count). The
// observability plane harvests it alongside Steps.
func (s *Scheduler) Cancels() uint64 { return s.ncancels }

// Stash keeps v until Take redeems the token it returns. Tokens are 1,
// 2, 3, … in call order: a name unique within this simulation that,
// unlike a process-wide counter, is the same in every run of it whatever
// else runs beside it — fit to go on a wire. The values die with the
// simulation, and Stashed counts the ones still held.
func (s *Scheduler) Stash(v any) uint64 {
	if s.stash == nil {
		s.stash = make(map[uint64]any)
	}
	s.serial++
	s.stash[s.serial] = v
	return s.serial
}

// Take removes and returns the value stashed under token (nil when there
// is none).
func (s *Scheduler) Take(token uint64) any {
	v := s.stash[token]
	delete(s.stash, token)
	return v
}

// Stashed is the number of stashed values not yet taken.
func (s *Scheduler) Stashed() int { return len(s.stash) }

// Pending returns the exact number of live events currently queued,
// in heap slots and in lanes. Canceled events no longer count (one that
// waits in a lane stays linked, dead, until the lane reaches it), so
// after a simulation drains Pending()==0 iff no timer leaked.
func (s *Scheduler) Pending() int { return len(s.queue) + s.nqueued }

// PendingNames returns the names of every queued event in an
// unspecified order. It exists for leak diagnostics: when a drained
// simulation reports Pending() > 0, the names identify the timers that
// were never fired or canceled.
func (s *Scheduler) PendingNames() []string {
	out := make([]string, 0, s.Pending())
	for i := range s.queue {
		for e := s.queue[i].ev; e != nil; e = e.next { // a lane head leads its lane
			if e.state == statePending {
				out = append(out, e.name)
			}
		}
	}
	return out
}

// arm queues a pooled event named name at absolute virtual time t; the
// caller fills in the callback (a recycled event's is already cleared).
// With a lane the event heads it when the lane is empty, waits behind
// the lane's last event when t is no earlier, and is otherwise a plain
// heap event. Its seq exceeds every queued event's, so an appended lane
// stays sorted in (when, seq).
func (s *Scheduler) arm(l *Lane, t Time, name string) *Event {
	if t < s.now {
		panic(fmt.Sprintf("simtime: scheduling %q at %v before now %v", name, t, s.now))
	}
	s.seq++
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = &Event{}
	}
	e.when, e.seq, e.name = t, s.seq, name
	e.canceled = false
	e.state = statePending
	if l != nil {
		switch tail := l.tail; {
		case tail == nil:
			e.lane, l.tail = l, e
		case t >= tail.when:
			e.lane, e.index = l, -1
			tail.next, l.tail = e, e
			s.nqueued++
			return e
		}
	}
	s.queue = append(s.queue, slot{})
	s.siftUp(len(s.queue)-1, slot{when: uint64(t), seq: s.seq, ev: e})
	return e
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// is a programming error and panics: the event loop cannot rewind.
func (s *Scheduler) At(t Time, name string, fn func()) *Event {
	e := s.arm(nil, t, name)
	e.fn, e.arg0 = callFunc, fn
	return e
}

// After schedules fn to run d from now.
func (s *Scheduler) After(d Duration, name string, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, name, fn)
}

// callFunc runs At's closure, which rides in arg0.
func callFunc(a0, _ any) { a0.(func())() }

// AtCallLane schedules fn(a0, a1) at absolute virtual time t. Unlike At
// it takes a plain function plus its arguments, stored inline in the
// pooled Event, so hot paths (per-packet delivery, per-segment
// retransmission timers) schedule without allocating a closure.
// Pointer-shaped arguments convert to `any` without boxing, keeping the
// call alloc-free. A nil lane queues the event on the heap; through a
// lane l (see Lane) the fire order is the same, and the queue work is
// O(1) when t is no earlier than the last event l holds.
func (s *Scheduler) AtCallLane(l *Lane, t Time, name string, fn func(a0, a1 any), a0, a1 any) *Event {
	e := s.arm(l, t, name)
	e.fn, e.arg0, e.arg1 = fn, a0, a1
	return e
}

// AfterCall schedules fn(a0, a1) to run d from now (see AtCallLane).
func (s *Scheduler) AfterCall(d Duration, name string, fn func(a0, a1 any), a0, a1 any) *Event {
	if d < 0 {
		d = 0
	}
	return s.AtCallLane(nil, s.now+d, name, fn, a0, a1)
}

// Cancel removes the event from the queue immediately (O(log n)) and
// recycles it; an event waiting in a lane is marked dead in O(1) and
// recycled when its lane reaches it. Canceling an already-fired,
// already-canceled or nil event is a no-op; canceling the currently
// firing event only marks it canceled (the callback is already running
// and cannot be recalled).
func (s *Scheduler) Cancel(e *Event) {
	if e == nil || e.state != statePending {
		if e != nil && e.state == stateFiring {
			e.canceled = true
		}
		return
	}
	e.canceled = true
	s.ncancels++
	if e.index < 0 {
		// Waiting in a lane: it stays linked, dead, until it reaches the
		// head, where removeAt recycles it.
		s.nqueued--
		e.state = stateDead
		e.fn, e.arg0, e.arg1 = nil, nil, nil
		return
	}
	s.removeAt(int(e.index))
	s.release(e)
}

// release marks an event dead and parks it on the free list. The canceled
// flag and name are preserved so that a holder which kept the pointer can
// still observe Canceled() until the struct is reused by At.
func (s *Scheduler) release(e *Event) {
	e.state = stateDead
	e.fn, e.arg0, e.arg1 = nil, nil, nil
	e.index = -1
	if len(s.free) < maxFreeEvents {
		s.free = append(s.free, e)
	}
}

// step executes the earliest event. It returns false when the queue is empty.
func (s *Scheduler) step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := s.queue[0].ev
	s.removeAt(0)
	if e.when < s.now {
		panic("simtime: event queue went backwards")
	}
	s.now = e.when
	s.nsteps++
	if s.FR != nil {
		s.FR.Record(int64(s.now), "sched", e.name, int64(e.seq), 0, 0)
	}
	var t0 int64
	if s.Prof != nil {
		t0 = s.Prof.Begin()
	}
	e.state = stateFiring
	fn, a0, a1 := e.fn, e.arg0, e.arg1
	fn(a0, a1)
	if s.Prof != nil {
		s.Prof.End(t0, e.name, s.Pending())
	}
	s.release(e)
	return true
}

// Run executes events until the queue drains.
func (s *Scheduler) Run() {
	for s.step() {
	}
}

// RunUntil executes events with time ≤ deadline, then advances the clock to
// the deadline. Events scheduled beyond the deadline remain queued.
func (s *Scheduler) RunUntil(deadline Time) {
	for len(s.queue) > 0 && Time(s.queue[0].when) <= deadline {
		s.step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// RunFor is RunUntil(Now()+d).
func (s *Scheduler) RunFor(d Duration) { s.RunUntil(s.now + d) }

// NextEventTime returns the virtual time of the next pending event and
// whether one exists.
func (s *Scheduler) NextEventTime() (Time, bool) {
	if len(s.queue) == 0 {
		return 0, false
	}
	return Time(s.queue[0].when), true
}

// Jiffies converts an absolute virtual time into a jiffies counter value
// given a per-node boot offset. The paper's TCP timestamp adjustment relies
// on different nodes having different jiffies values for the same instant.
func Jiffies(now Time, bootOffset uint32) uint32 {
	return bootOffset + uint32(now/JiffyPeriod)
}

// Ticker invokes fn every period until Stop is called. The first tick
// fires one period after Start.
//
// Every tick re-arms at now+period, so the ticks of all tickers of one
// period arrive in time order: they share one lane of the scheduler.
// The first ticker started at a period hosts that lane, so a period
// costs no allocation and a lone ticker's lane shares its cache line.
type Ticker struct {
	s       *Scheduler
	period  Duration
	fn      func()
	ev      *Event
	lane    *Lane
	host    Lane
	stop    bool
	running bool
	name    string
}

// NewTicker creates a stopped ticker; call Start to begin.
func NewTicker(s *Scheduler, period Duration, name string, fn func()) *Ticker {
	if period <= 0 {
		panic("simtime: ticker period must be positive")
	}
	return &Ticker{s: s, period: period, fn: fn, name: name}
}

// Start arms the ticker one period from now. Starting a running ticker
// is a no-op.
func (t *Ticker) Start() { t.start(t.s.now + t.period) }

// start arms a stopped ticker's first tick at first.
func (t *Ticker) start(first Time) {
	if t.running {
		return
	}
	t.stop = false
	t.running = true
	t.lane = t.s.tickLane(t.period, &t.host)
	t.arm(first)
}

func (t *Ticker) arm(at Time) {
	t.ev = t.s.AtCallLane(t.lane, at, t.name, tickerCall, t, nil)
}

// tickLane returns the lane shared by the tickers of one period; the
// first to ask hosts it in host.
func (s *Scheduler) tickLane(period Duration, host *Lane) *Lane {
	l := s.tickLanes[period]
	if l == nil {
		if s.tickLanes == nil {
			s.tickLanes = make(map[Duration]*Lane)
		}
		l = host
		s.tickLanes[period] = l
	}
	return l
}

// StartAligned arms the ticker so every tick lands on a whole multiple
// of the period, regardless of when it is called: the first tick fires
// at the next multiple strictly after now, and re-arming by +period
// stays on the grid. Samplers use this so sample instants depend only
// on the period — never on construction order — which is what keeps
// time-series artifacts byte-identical across harness variations.
// Starting a running ticker is a no-op.
func (t *Ticker) StartAligned() { t.start((t.s.now/t.period + 1) * t.period) }

// tickerCall is the closure-free tick trampoline: a ticker re-arms once
// per period for the whole simulation, so the per-tick schedule must not
// allocate.
func tickerCall(a0, _ any) {
	t := a0.(*Ticker)
	t.ev = nil // event is dead the moment it fires
	if t.stop {
		t.running = false
		return
	}
	t.fn()
	if !t.stop {
		t.arm(t.s.now + t.period)
	} else {
		t.running = false
	}
}

// Stop disarms the ticker.
func (t *Ticker) Stop() {
	t.stop = true
	t.running = false
	if t.ev != nil {
		t.s.Cancel(t.ev)
		t.ev = nil
	}
}

// Rand is a small, fast, deterministic PRNG (xorshift64*), independent of
// math/rand so that simulation results never change across Go releases.
type Rand struct{ state uint64 }

// NewRand seeds a generator; seed 0 is remapped to a fixed constant.
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Rand{state: seed}
}

// Uint64 returns the next raw 64-bit value.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a uniform value in [0, n). It panics when n ≤ 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("simtime: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// ExpDuration returns an exponentially distributed duration with the given
// mean, clamped to a sane maximum to keep event queues bounded.
func (r *Rand) ExpDuration(mean Duration) Duration {
	u := r.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	d := Duration(float64(mean) * -math.Log(u))
	if d > 100*mean {
		d = 100 * mean
	}
	return d
}

// Perm returns a deterministic random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
