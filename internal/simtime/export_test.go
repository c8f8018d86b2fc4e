package simtime

import "fmt"

// Queue-layout probes for the differential tests: the invariant checker
// and the slots whose removal takes each of removeAt's three paths.

// checkQueue verifies what Cancel and step rely on: every slot's inline
// key mirrors its event, every pending event's index points back at its
// slot, and no slot is ordered before its parent.
func (s *Scheduler) checkQueue() error {
	for i := range s.queue {
		sl := &s.queue[i]
		e := sl.ev
		switch {
		case e == nil:
			return fmt.Errorf("slot %d holds no event", i)
		case e.index != i:
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
