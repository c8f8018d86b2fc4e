package simtime

import "fmt"

// Queue-layout probes for the differential tests: the invariant checker
// and the slots whose removal takes each of removeAt's three paths for
// a slot with no lane behind it.

// checkQueue verifies what Cancel and step rely on: every slot's inline
// key mirrors its event, every slotted event's index points back at its
// slot, and no slot is ordered before its parent. For lanes it checks
// that a slotted lane event is its lane's head (no lane has two slots,
// and no slotted event waits behind another), that the events behind
// each head are slotless, pending or canceled, and sorted in (when, seq)
// up to the lane's tail, and that the pending ones number exactly the
// scheduler's count of lane-queued events. The lanes passed in, and
// every ticker lane, must be empty or slotted.
func (s *Scheduler) checkQueue(lanes ...*Lane) error {
	slotted := map[*Lane]bool{}
	behind := map[*Event]bool{}
	queued := 0
	for i := range s.queue {
		sl := &s.queue[i]
		e := sl.ev
		switch {
		case e == nil:
			return fmt.Errorf("slot %d holds no event", i)
		case int(e.index) != i:
			return fmt.Errorf("slot %d: event %q has index %d", i, e.name, e.index)
		case e.state != statePending:
			return fmt.Errorf("slot %d: event %q in state %d", i, e.name, e.state)
		case Time(sl.when) != e.when || sl.seq != e.seq:
			return fmt.Errorf("slot %d: key (%d,%d) != event (%d,%d)", i, sl.when, sl.seq, e.when, e.seq)
		}
		if i > 0 {
			p := &s.queue[(i-1)/2]
			// Spelled out rather than calling before(): the checker must
			// not inherit a bug in the comparison it is checking.
			if e.when < p.ev.when || (e.when == p.ev.when && e.seq < p.ev.seq) {
				return fmt.Errorf("slot %d (%d,%d) ordered before its parent (%d,%d)",
					i, e.when, e.seq, p.ev.when, p.ev.seq)
			}
		}
		if e.lane == nil {
			if e.next != nil {
				return fmt.Errorf("slot %d: plain event %q has a lane link", i, e.name)
			}
			continue
		}
		if slotted[e.lane] {
			return fmt.Errorf("slot %d: a second slot for the lane of %q", i, e.name)
		}
		slotted[e.lane] = true
		last := e
		for q := e.next; q != nil; last, q = q, q.next {
			behind[q] = true
			switch {
			case q.lane != e.lane:
				return fmt.Errorf("lane of slot %d: %q belongs to another lane", i, q.name)
			case q.index != -1:
				return fmt.Errorf("lane of slot %d: waiting %q has index %d", i, q.name, q.index)
			case q.state == statePending:
				queued++
			case q.state != stateDead || !q.canceled:
				return fmt.Errorf("lane of slot %d: waiting %q in state %d", i, q.name, q.state)
			}
			if q.when < last.when || (q.when == last.when && q.seq <= last.seq) {
				return fmt.Errorf("lane of slot %d: (%d,%d) waits behind (%d,%d)",
					i, q.when, q.seq, last.when, last.seq)
			}
		}
		if e.lane.tail != last {
			return fmt.Errorf("lane of slot %d: tail is not the last event %q", i, last.name)
		}
	}
	for i := range s.queue {
		if behind[s.queue[i].ev] {
			return fmt.Errorf("slot %d: %q also waits behind a lane head", i, s.queue[i].ev.name)
		}
	}
	if queued != s.nqueued {
		return fmt.Errorf("%d events wait in lanes, scheduler counts %d", queued, s.nqueued)
	}
	for _, l := range s.tickLanes {
		lanes = append(lanes, l)
	}
	for _, l := range lanes {
		if l.tail != nil && !slotted[l] {
			return fmt.Errorf("lane with tail %q has no slot", l.tail.name)
		}
	}
	if full := s.queue[:cap(s.queue)]; len(full) > len(s.queue) {
		if full[len(s.queue)].ev != nil {
			return fmt.Errorf("vacated slot %d still pins an event", len(s.queue))
		}
	}
	return nil
}

// lastSlotEvent is the event in the final slot: removing it shrinks the
// queue without sifting.
func (s *Scheduler) lastSlotEvent() *Event {
	if len(s.queue) == 0 {
		return nil
	}
	return s.queue[len(s.queue)-1].ev
}

// siftUpVictim returns an event in a middle slot whose removal makes the
// last slot's entry sift up (it is earlier than the victim's parent), or
// nil when the current layout has none.
func (s *Scheduler) siftUpVictim() *Event {
	last := len(s.queue) - 1
	for i := 1; i < last; i++ {
		if before(&s.queue[last], &s.queue[(i-1)/2]) != 0 {
			return s.queue[i].ev
		}
	}
	return nil
}
