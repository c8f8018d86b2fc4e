package simtime

import (
	"container/heap"
	"fmt"
	"testing"
	"time"
)

// Differential oracle for the scheduler's queue. The reference is the
// queue the scheduler used before it grew its own heap — container/heap
// over []*refEvent, ordered by (when, seq) — inside a minimal model of
// the scheduler's contract (eager cancel, firing/dead states, RunUntil).
// A byte program drives both in lockstep; since (when, seq) is a strict
// total order, any correct priority queue must produce the same fire
// order, Pending() and Cancels() after every operation. Lanes are
// invisible to the oracle: an arm through a lane and a ticker's tick are
// plain events there, which is the claim that lanes cannot change the
// order.

type refEvent struct {
	when  Time
	seq   uint64
	name  string
	fn    func()
	state uint8
	index int
}

type eventQueue []*refEvent

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].when != q[j].when {
		return q[i].when < q[j].when
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

type refScheduler struct {
	now      Time
	seq      uint64
	queue    eventQueue
	ncancels uint64
}

func (s *refScheduler) at(t Time, name string, fn func()) *refEvent {
	if t < s.now {
		panic("ref: scheduling in the past")
	}
	s.seq++
	e := &refEvent{when: t, seq: s.seq, name: name, fn: fn, state: statePending}
	heap.Push(&s.queue, e)
	return e
}

func (s *refScheduler) cancel(e *refEvent) {
	if e == nil || e.state != statePending {
		return
	}
	s.ncancels++
	heap.Remove(&s.queue, e.index)
	e.state = stateDead
}

func (s *refScheduler) runUntil(deadline Time) {
	for len(s.queue) > 0 && s.queue[0].when <= deadline {
		e := heap.Pop(&s.queue).(*refEvent)
		s.now = e.when
		e.state = stateFiring
		e.fn()
		e.state = stateDead
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// fired is one line of the fire log both sides must agree on.
type fired struct {
	when Time
	seq  uint64
	name string
}

// refTicker is Ticker's contract over the oracle's plain events.
type refTicker struct {
	s       *refScheduler
	name    string
	fn      func()
	ev      *refEvent
	stop    bool
	running bool
}

func (t *refTicker) start(aligned bool) {
	if t.running {
		return
	}
	t.stop, t.running = false, true
	next := t.s.now + opsTickPeriod
	if aligned {
		next = (t.s.now/opsTickPeriod + 1) * opsTickPeriod
	}
	t.arm(next)
}

func (t *refTicker) arm(at Time) {
	t.ev = t.s.at(at, t.name, func() {
		t.ev = nil
		if t.stop {
			t.running = false
			return
		}
		t.fn()
		if !t.stop {
			t.arm(t.s.now + opsTickPeriod)
		} else {
			t.running = false
		}
	})
}

func (t *refTicker) halt() {
	t.stop, t.running = true, false
	if t.ev != nil {
		t.s.cancel(t.ev)
		t.ev = nil
	}
}

// The programs' lanes and tickers: three lanes for direct arms, and
// four tickers of one period, which share the scheduler's ticker lane.
const (
	opsLanes      = 3
	opsTickers    = 4
	opsTickPeriod = 3 * time.Millisecond
)

var opsTickNames = [opsTickers]string{"tick.a", "tick.b", "tick.c", "tick.d"}

// opsQueue is what the interpreter needs from either implementation.
// Handles are opaque; a nil handle is Cancel(nil). Ticker i is created
// with fn on its first start.
type opsQueue interface {
	at(t Time, name string, call bool, fn func()) any
	atLane(k int, t Time, name string, fn func()) any
	startTicker(i int, aligned bool, fn func())
	stopTicker(i int)
	cancel(h any)
	key(h any) (Time, uint64, string)
	runUntil(t Time)
	now() Time
	pending() int
	cancels() uint64
}

type realQueue struct {
	s       *Scheduler
	lanes   [opsLanes]Lane
	tickers [opsTickers]*Ticker
}

func (q *realQueue) at(t Time, name string, call bool, fn func()) any {
	if call {
		return q.s.AtCallLane(nil, t, name, func(a0, _ any) { a0.(func())() }, fn, nil)
	}
	if t == q.s.Now() {
		return q.s.After(0, name, fn)
	}
	return q.s.At(t, name, fn)
}
func (q *realQueue) atLane(k int, t Time, name string, fn func()) any {
	return q.s.AtCallLane(&q.lanes[k], t, name, func(a0, _ any) { a0.(func())() }, fn, nil)
}
func (q *realQueue) startTicker(i int, aligned bool, fn func()) {
	if q.tickers[i] == nil {
		q.tickers[i] = NewTicker(q.s, opsTickPeriod, opsTickNames[i], fn)
	}
	if aligned {
		q.tickers[i].StartAligned()
	} else {
		q.tickers[i].Start()
	}
}
func (q *realQueue) stopTicker(i int) {
	if q.tickers[i] != nil {
		q.tickers[i].Stop()
	}
}
func (q *realQueue) cancel(h any) {
	if h == nil {
		q.s.Cancel(nil)
		return
	}
	q.s.Cancel(h.(*Event))
}
func (q *realQueue) key(h any) (Time, uint64, string) {
	e := h.(*Event)
	return e.when, e.seq, e.name
}
func (q *realQueue) runUntil(t Time) { q.s.RunUntil(t) }
func (q *realQueue) now() Time       { return q.s.Now() }
func (q *realQueue) pending() int    { return q.s.Pending() }
func (q *realQueue) cancels() uint64 { return q.s.Cancels() }

type oracleQueue struct {
	s       *refScheduler
	tickers [opsTickers]*refTicker
}

func (q *oracleQueue) at(t Time, name string, _ bool, fn func()) any { return q.s.at(t, name, fn) }
func (q *oracleQueue) atLane(_ int, t Time, name string, fn func()) any {
	return q.s.at(t, name, fn)
}
func (q *oracleQueue) startTicker(i int, aligned bool, fn func()) {
	if q.tickers[i] == nil {
		q.tickers[i] = &refTicker{s: q.s, name: opsTickNames[i], fn: fn}
	}
	q.tickers[i].start(aligned)
}
func (q *oracleQueue) stopTicker(i int) {
	if q.tickers[i] != nil {
		q.tickers[i].halt()
	}
}
func (q *oracleQueue) cancel(h any) {
	if h == nil {
		q.s.cancel(nil)
		return
	}
	q.s.cancel(h.(*refEvent))
}
func (q *oracleQueue) key(h any) (Time, uint64, string) {
	e := h.(*refEvent)
	return e.when, e.seq, e.name
}
func (q *oracleQueue) runUntil(t Time) { q.s.runUntil(t) }
func (q *oracleQueue) now() Time       { return q.s.now }
func (q *oracleQueue) pending() int    { return len(q.s.queue) }
func (q *oracleQueue) cancels() uint64 { return q.s.ncancels }

// opsSide is one implementation plus the holder-side bookkeeping the
// ownership contract demands: a handle is pending, firing or dead, and a
// dead pointer may be passed to Cancel only until the next schedule
// (after which the real scheduler may have recycled the struct).
type opsSide struct {
	q       opsQueue
	handles []any
	state   []uint8
	diedAt  []int // nsched when the handle died
	nsched  int
	log     []fired
	check   func() // invariant probe run after nested operations
}

var opsNames = [...]string{"tcp.rto", "zone.loop", "net.deliver", "lb.eval", "tie"}

// schedule arms logical event id=len(handles) with the given behaviour.
func (sd *opsSide) schedule(t Time, call bool, behave func(sd *opsSide, id int)) int {
	return sd.scheduleVia(-1, t, call, behave)
}

// scheduleVia is schedule through lane k, or plainly when k < 0.
func (sd *opsSide) scheduleVia(k int, t Time, call bool, behave func(sd *opsSide, id int)) int {
	id := len(sd.handles)
	sd.handles = append(sd.handles, nil)
	sd.state = append(sd.state, statePending)
	sd.diedAt = append(sd.diedAt, 0)
	sd.nsched++
	name := opsNames[id%len(opsNames)]
	fire := func() {
		when, seq, name := sd.q.key(sd.handles[id])
		sd.log = append(sd.log, fired{when, seq, name})
		sd.state[id] = stateFiring
		if behave != nil {
			behave(sd, id)
			if sd.check != nil {
				sd.check()
			}
		}
		sd.state[id], sd.diedAt[id] = stateDead, sd.nsched
	}
	if k >= 0 {
		sd.handles[id] = sd.q.atLane(k, t, name, fire)
	} else {
		sd.handles[id] = sd.q.at(t, name, call, fire)
	}
	return id
}

// startTicker starts ticker i; its ticks are logged under seq 0 (a
// ticker's event is not the holder's to see), so they are compared by
// position in the fire log. A start and every tick's re-arm schedule,
// which may recycle a dead handle.
func (sd *opsSide) startTicker(i int, aligned bool) {
	sd.nsched++
	sd.q.startTicker(i, aligned, func() {
		sd.log = append(sd.log, fired{sd.q.now(), 0, opsTickNames[i]})
		sd.nsched++
	})
}

// cancel passes handle id to Cancel whatever its state — pending (a real
// removal), firing (mark only) or dead (no-op) — except that a dead
// pointer which may have been recycled is replaced by nil.
func (sd *opsSide) cancel(id int) {
	switch sd.state[id] {
	case statePending:
		sd.q.cancel(sd.handles[id])
		sd.state[id], sd.diedAt[id] = stateDead, sd.nsched
	case stateFiring:
		sd.q.cancel(sd.handles[id])
	default:
		if sd.diedAt[id] == sd.nsched {
			sd.q.cancel(sd.handles[id])
		} else {
			sd.q.cancel(nil)
		}
	}
}

// opsCoverage counts how often the layout-dependent cancels found the
// slot they were after and how often each lane path was taken, so the
// property test can prove it exercised them.
type opsCoverage struct {
	root, last, siftUp, firing, dead int
	// Lane arms: into an empty lane (the new head), appended behind
	// the tail, or earlier than the tail (a plain heap event).
	laneHead, laneAppend, laneFallback int
	// Cancels of a lane's head and of an event waiting behind it, and
	// ticker stops that canceled a tick waiting mid-lane.
	cancelHead, cancelQueued, tickMidLane int
}

// runOpsProgram interprets program against the real scheduler and the
// oracle in lockstep and returns the first disagreement or invariant
// breach. Each step is an opcode byte and an operand byte.
func runOpsProgram(program []byte, cov *opsCoverage) error {
	s := NewScheduler()
	rq := &realQueue{s: s}
	lanes := make([]*Lane, opsLanes)
	for k := range lanes {
		lanes[k] = &rq.lanes[k]
	}
	realSide := &opsSide{q: rq}
	refSide := &opsSide{q: &oracleQueue{s: &refScheduler{}}}
	var nestedErr error
	realSide.check = func() {
		if err := s.checkQueue(lanes...); err != nil && nestedErr == nil {
			nestedErr = fmt.Errorf("inside a callback at %v: %w", s.Now(), err)
		}
	}
	both := func(f func(sd *opsSide)) { f(realSide); f(refSide) }
	// idOf maps a real queue slot's event back to its logical id.
	idOf := func(e *Event) int {
		for id, h := range realSide.handles {
			if realSide.state[id] == statePending && h.(*Event) == e {
				return id
			}
		}
		return -1
	}
	// laneCancel tallies a cancel of a pending lane event.
	laneCancel := func(id int) {
		if realSide.state[id] != statePending {
			return
		}
		switch e := realSide.handles[id].(*Event); {
		case e.lane == nil:
		case e.index >= 0:
			cov.cancelHead++
		default:
			cov.cancelQueued++
		}
	}
	cancelEvent := func(e *Event, hit *int) {
		if id := idOf(e); id >= 0 {
			*hit++
			laneCancel(id)
			both(func(sd *opsSide) { sd.cancel(id) })
		}
	}

	for pc := 0; pc+1 < len(program); pc += 2 {
		op, arg := program[pc]%14, program[pc+1]
		near := Time(arg%4) * time.Millisecond
		switch op {
		case 0: // At, a handful of distinct instants so many events tie
			both(func(sd *opsSide) { sd.schedule(sd.q.now()+near, false, nil) })
		case 1: // AtCallLane, no lane
			both(func(sd *opsSide) { sd.schedule(sd.q.now()+near, true, nil) })
		case 2: // After(0)
			both(func(sd *opsSide) { sd.schedule(sd.q.now(), false, nil) })
		case 3: // At, spread out
			both(func(sd *opsSide) { sd.schedule(sd.q.now()+Time(arg)*time.Millisecond, arg&1 == 0, nil) })
		case 4: // Cancel any handle: pending, or dead (stale pointer / nil)
			if n := len(realSide.handles); n > 0 {
				id := int(arg) % n
				if realSide.state[id] == stateDead {
					cov.dead++
				}
				laneCancel(id)
				both(func(sd *opsSide) { sd.cancel(id) })
			}
		case 5: // Cancel(nil)
			both(func(sd *opsSide) { sd.q.cancel(nil) })
		case 6: // Cancel the root
			if len(s.queue) > 0 {
				cancelEvent(s.queue[0].ev, &cov.root)
			}
		case 7: // Cancel the last slot
			cancelEvent(s.lastSlotEvent(), &cov.last)
		case 8: // Cancel a middle slot whose replacement must sift up, if any
			cancelEvent(s.siftUpVictim(), &cov.siftUp)
		case 9: // RunUntil
			both(func(sd *opsSide) { sd.q.runUntil(sd.q.now() + near) })
		case 10: // an event that acts from inside its callback
			victim := int(arg >> 2)
			behave := [...]func(sd *opsSide, id int){
				func(sd *opsSide, id int) { sd.schedule(sd.q.now(), true, nil) }, // After(0) child
				func(sd *opsSide, id int) { sd.cancel(id) },                      // cancel self while firing
				func(sd *opsSide, id int) { sd.cancel(victim % len(sd.handles)) },
				func(sd *opsSide, id int) {
					sd.schedule(sd.q.now()+time.Millisecond, false, nil)
					sd.cancel(id)
				},
			}[arg%4]
			if arg%4 == 1 || arg%4 == 3 {
				cov.firing++
			}
			both(func(sd *opsSide) { sd.schedule(sd.q.now()+near, arg&16 != 0, behave) })
		case 11: // double Cancel: the second hits a dead, not yet reused struct
			if n := len(realSide.handles); n > 0 {
				id := int(arg) % n
				both(func(sd *opsSide) { sd.cancel(id); sd.cancel(id) })
			}
		case 12: // arm through lane k, 0-5 ms out: often before the lane's tail
			k, t := int(arg)%opsLanes, s.Now()+Time(arg/opsLanes%6)*time.Millisecond
			if arg >= 192 { // or cancel the first live event waiting behind its head
				for i := range s.queue {
					if head := s.queue[i].ev; head.lane == &rq.lanes[k] {
						q := head.next
						for q != nil && q.state != statePending {
							q = q.next
						}
						if q != nil {
							cancelEvent(q, new(int))
						}
						break
					}
				}
				break
			}
			switch tail := rq.lanes[k].tail; {
			case tail == nil:
				cov.laneHead++
			case t >= tail.when:
				cov.laneAppend++
			default:
				cov.laneFallback++
			}
			both(func(sd *opsSide) { sd.scheduleVia(k, t, true, nil) })
		case 13: // start (plain or aligned) or stop a ticker of the shared period
			i := int(arg) % opsTickers
			if tk := rq.tickers[i]; tk != nil && tk.running {
				if tk.ev != nil && tk.ev.index < 0 {
					cov.tickMidLane++
				}
				both(func(sd *opsSide) { sd.q.stopTicker(i) })
			} else {
				both(func(sd *opsSide) { sd.startTicker(i, arg&4 != 0) })
			}
		}
		if err := compareSides(s, lanes, realSide, refSide, nestedErr); err != nil {
			return fmt.Errorf("step %d (op %d arg %d): %w", pc/2, op, arg, err)
		}
	}
	for i := 0; i < opsTickers; i++ {
		both(func(sd *opsSide) { sd.q.stopTicker(i) })
	}
	both(func(sd *opsSide) { sd.q.runUntil(sd.q.now() + time.Hour) })
	if err := compareSides(s, lanes, realSide, refSide, nestedErr); err != nil {
		return fmt.Errorf("final drain: %w", err)
	}
	if s.Pending() != 0 {
		return fmt.Errorf("%d events pending after the final drain: %v", s.Pending(), s.PendingNames())
	}
	return nil
}

func compareSides(s *Scheduler, lanes []*Lane, realSide, refSide *opsSide, nestedErr error) error {
	if nestedErr != nil {
		return nestedErr
	}
	if err := s.checkQueue(lanes...); err != nil {
		return err
	}
	if a, b := realSide.q.pending(), refSide.q.pending(); a != b {
		return fmt.Errorf("Pending() = %d, oracle %d", a, b)
	}
	if a, b := realSide.q.cancels(), refSide.q.cancels(); a != b {
		return fmt.Errorf("Cancels() = %d, oracle %d", a, b)
	}
	if a, b := realSide.q.now(), refSide.q.now(); a != b {
		return fmt.Errorf("Now() = %v, oracle %v", a, b)
	}
	if next, ok := s.NextEventTime(); ok != (refSide.q.pending() > 0) ||
		(ok && next != refSide.q.(*oracleQueue).s.queue[0].when) {
		return fmt.Errorf("NextEventTime() = %v,%v disagrees with the oracle", next, ok)
	}
	if len(realSide.log) != len(refSide.log) {
		return fmt.Errorf("%d events fired, oracle %d", len(realSide.log), len(refSide.log))
	}
	for i := range realSide.log {
		if realSide.log[i] != refSide.log[i] {
			return fmt.Errorf("fire %d = %+v, oracle %+v", i, realSide.log[i], refSide.log[i])
		}
	}
	// Compared once; later steps only need to look at what they append.
	realSide.log, refSide.log = realSide.log[:0], refSide.log[:0]
	return nil
}

func opsProgram(seed uint64, n int) []byte {
	r := NewRand(seed)
	program := make([]byte, n)
	for i := range program {
		program[i] = byte(r.Uint64())
	}
	return program
}

// TestQueueMatchesContainerHeap runs seeded random programs and requires
// that they reached every cancel position the queue treats differently.
func TestQueueMatchesContainerHeap(t *testing.T) {
	var cov opsCoverage
	for seed := uint64(1); seed <= 60; seed++ {
		if err := runOpsProgram(opsProgram(seed, 3000), &cov); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if cov.root == 0 || cov.last == 0 || cov.siftUp == 0 || cov.firing == 0 || cov.dead == 0 {
		t.Fatalf("programs missed a cancel case: %+v", cov)
	}
	if cov.laneHead == 0 || cov.laneAppend == 0 || cov.laneFallback == 0 ||
		cov.cancelHead == 0 || cov.cancelQueued == 0 || cov.tickMidLane == 0 {
		t.Fatalf("programs missed a lane case: %+v", cov)
	}
}

// TestQueueCancelPositions pins the three removeAt paths on a layout
// built by hand: pushing 1 5 2 6 7 4 3 (ms) leaves exactly that slot
// order, so the last slot (3) lies in the right subtree and is earlier
// than the parent (5) of slot 3 in the left one.
func TestQueueCancelPositions(t *testing.T) {
	build := func() *Scheduler {
		s := NewScheduler()
		for _, ms := range []int{1, 5, 2, 6, 7, 4, 3} {
			s.At(Time(ms)*time.Millisecond, "k", func() {})
		}
		if err := s.checkQueue(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	drain := func(s *Scheduler) (order []int) {
		for s.Pending() > 0 {
			next, _ := s.NextEventTime()
			order = append(order, int(next/time.Millisecond))
			s.RunUntil(next)
			if err := s.checkQueue(); err != nil {
				t.Fatal(err)
			}
		}
		return order
	}
	cases := []struct {
		name   string
		victim func(s *Scheduler) *Event
		want   string
	}{
		{"root", func(s *Scheduler) *Event { return s.queue[0].ev }, "[2 3 4 5 6 7]"},
		{"last", func(s *Scheduler) *Event { return s.lastSlotEvent() }, "[1 2 4 5 6 7]"},
		{"sift-up", func(s *Scheduler) *Event { return s.siftUpVictim() }, "[1 2 3 4 5 7]"},
	}
	for _, c := range cases {
		s := build()
		v := c.victim(s)
		if v == nil {
			t.Fatalf("%s: layout has no such slot", c.name)
		}
		if c.name == "sift-up" && v.index != 3 {
			t.Fatalf("sift-up victim in slot %d, want 3", v.index)
		}
		s.Cancel(v)
		if err := s.checkQueue(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.name == "sift-up" && s.queue[1].ev.when != 3*time.Millisecond {
			t.Fatalf("sift-up: replacement did not rise to slot 1: %v", s.queue[1].ev.when)
		}
		if got := fmt.Sprint(drain(s)); got != c.want {
			t.Fatalf("%s: fire order %s, want %s", c.name, got, c.want)
		}
	}
}

// laneSeeds are one short program per lane path. Opcode 12's operand
// picks lane arg%3 and an offset of arg/3%6 ms (3, 6, 9 are lane 0 at
// 1, 2, 3 ms; 0 is lane 0 now), or from 192 up cancels the event right
// behind the lane's head; opcode 13 toggles ticker arg%4.
var laneSeeds = []struct {
	name    string
	program []byte
	hits    func(c *opsCoverage) int
}{
	{"append", []byte{12, 3, 12, 6, 12, 9, 9, 3},
		func(c *opsCoverage) int { return c.laneAppend }},
	{"fallback", []byte{12, 9, 12, 3, 12, 0, 9, 3},
		func(c *opsCoverage) int { return c.laneFallback }},
	{"cancel head", []byte{12, 3, 12, 6, 12, 9, 6, 0, 9, 3},
		func(c *opsCoverage) int { return c.cancelHead }},
	{"cancel queued", []byte{12, 3, 12, 6, 12, 9, 12, 192, 9, 3},
		func(c *opsCoverage) int { return c.cancelQueued }},
	{"drain then refill", []byte{12, 3, 12, 6, 9, 3, 12, 3, 12, 6, 9, 3},
		func(c *opsCoverage) int { return c.laneHead - 1 }},
	{"ticker stopped mid-lane", []byte{13, 0, 13, 1, 13, 2, 9, 3, 9, 3, 13, 1, 9, 3},
		func(c *opsCoverage) int { return c.tickMidLane }},
}

// TestLaneSeedPrograms checks that each lane seed takes its path.
func TestLaneSeedPrograms(t *testing.T) {
	for _, seed := range laneSeeds {
		var cov opsCoverage
		if err := runOpsProgram(seed.program, &cov); err != nil {
			t.Fatalf("%s: %v", seed.name, err)
		}
		if seed.hits(&cov) <= 0 {
			t.Fatalf("%s: program missed its path: %+v", seed.name, cov)
		}
	}
}

// FuzzSchedulerOps feeds arbitrary programs to the same interpreter; the
// seed corpus is the property test's first programs, one short program
// per cancel position and per lane path, and the inputs committed under
// testdata/fuzz/FuzzSchedulerOps.
func FuzzSchedulerOps(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 0, 2, 6, 0, 9, 3})                   // cancel the root
	f.Add([]byte{0, 1, 0, 2, 0, 3, 7, 0, 9, 3})                   // cancel the last slot
	f.Add([]byte{0, 1, 3, 5, 0, 2, 3, 6, 3, 7, 3, 4, 0, 3, 8, 0}) // cancel with sift-up
	f.Add([]byte{10, 1, 10, 3, 10, 2, 9, 3, 4, 0, 11, 1, 5, 0})   // firing, dead, nil
	for _, seed := range laneSeeds {
		f.Add(seed.program)
	}
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(opsProgram(seed, 256))
	}
	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) > 4096 {
			program = program[:4096]
		}
		var cov opsCoverage
		if err := runOpsProgram(program, &cov); err != nil {
			t.Fatal(err)
		}
	})
}
