// Package flight implements a bounded, allocation-free flight recorder:
// a ring buffer of the last N structured events per track (node, NIC,
// scheduler). Hot paths record fixed-size events with static strings and
// integer payloads — no formatting, no allocation, no branches beyond a
// nil check when the recorder is detached — and failure paths dump the
// retained window for post-mortem diagnosis.
//
// flight is a dependency-free leaf package: simtime, netsim, netstack,
// proc, migration and lb all record into it, so it must import none of
// them (the same constraint that keeps the obs harvester acyclic).
// Timestamps are therefore plain int64 nanoseconds, not simtime.Time.
package flight

import (
	"fmt"
	"io"
)

// Event is one fixed-size flight-recorder record. Kind and Name must be
// static (or at least pre-existing) strings on hot paths: the recorder
// stores the string headers, never copies the bytes, so recording
// allocates nothing.
type Event struct {
	At   int64  // virtual time, nanoseconds
	Kind string // event class: "sched", "pkt", "phase", "detector", ...
	Name string // event name within the class
	A    int64  // class-specific payloads (pid, seq, addr, ...)
	B    int64
	C    int64
}

// Recorder is a bounded ring of the last N events on one track. A nil
// recorder discards everything, so callers gate recording on a single
// pointer comparison.
type Recorder struct {
	Track string
	buf   []Event
	n     uint64 // total events ever recorded
}

// New returns a recorder retaining the last capacity (> 0) events.
func New(track string, capacity int) *Recorder {
	return &Recorder{Track: track, buf: make([]Event, 0, capacity)}
}

// Record appends one event, overwriting the oldest once the ring is
// full. Safe on a nil receiver; steady-state cost is one bounds-checked
// slot store.
func (r *Recorder) Record(at int64, kind, name string, a, b, c int64) {
	if r == nil {
		return
	}
	e := Event{At: at, Kind: kind, Name: name, A: a, B: b, C: c}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.n%uint64(cap(r.buf))] = e
	}
	r.n++
}

// Len reports how many events are currently retained.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Total reports how many events were ever recorded (retained + evicted).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.n
}

// Events returns the retained window oldest-first. It allocates; call it
// from failure paths only.
func (r *Recorder) Events() []Event {
	if r == nil || len(r.buf) == 0 {
		return nil
	}
	out := make([]Event, 0, len(r.buf))
	if len(r.buf) < cap(r.buf) {
		return append(out, r.buf...)
	}
	head := int(r.n % uint64(cap(r.buf))) // oldest slot
	out = append(out, r.buf[head:]...)
	return append(out, r.buf[:head]...)
}

// Dump writes the retained window as text (the format documented in
// DESIGN.md §7): a header line with retention counts, then one line per
// event, oldest first.
func (r *Recorder) Dump(w io.Writer) {
	if r == nil {
		return
	}
	fmt.Fprintf(w, "flight %s: %d/%d events retained (oldest first)\n",
		r.Track, r.Len(), r.Total())
	for _, e := range r.Events() {
		fmt.Fprintf(w, "  %14.6fs %-9s %-28s a=%-12d b=%-12d c=%d\n",
			float64(e.At)/1e9, e.Kind, e.Name, e.A, e.B, e.C)
	}
}

// DumpRange writes the retained events whose timestamps fall in the
// half-open window [fromNs, toNs) — an event exactly at fromNs is
// included, one exactly at toNs belongs to the next window. The header
// reports the in-window count against the retained count so a reader
// can tell filtering from eviction.
func (r *Recorder) DumpRange(w io.Writer, fromNs, toNs int64) {
	if r == nil {
		return
	}
	events := r.Events()
	in := 0
	for _, e := range events {
		if e.At >= fromNs && e.At < toNs {
			in++
		}
	}
	fmt.Fprintf(w, "flight %s: %d/%d retained events in window (%d/%d total retained, oldest first)\n",
		r.Track, in, r.Len(), r.Len(), r.Total())
	for _, e := range events {
		if e.At < fromNs || e.At >= toNs {
			continue
		}
		fmt.Fprintf(w, "  %14.6fs %-9s %-28s a=%-12d b=%-12d c=%d\n",
			float64(e.At)/1e9, e.Kind, e.Name, e.A, e.B, e.C)
	}
}

// depth is how many events each track of a Set retains.
const depth = 256

// Set groups the recorders of one simulation so failure paths can dump
// every track at once.
type Set struct {
	recs []*Recorder
}

// NewSet returns an empty set.
func NewSet() *Set { return &Set{} }

// Track creates (and registers) a recorder for the named track,
// retaining the last depth events.
func (s *Set) Track(name string) *Recorder {
	r := New(name, depth)
	s.recs = append(s.recs, r)
	return r
}

// Recorders returns the registered recorders in creation order.
func (s *Set) Recorders() []*Recorder {
	if s == nil {
		return nil
	}
	return s.recs
}

// Dump writes every track's retained window, in creation order.
func (s *Set) Dump(w io.Writer) {
	if s == nil {
		return
	}
	for _, r := range s.recs {
		r.Dump(w)
	}
}

// DumpWindow writes every track's retained events scoped to the
// half-open sample window [fromNs, toNs), preceded by a locator header
// naming the window index and sim-time range. A mid-run dump is then
// self-locating — the reader knows which slice of the run the events
// belong to — and scoped: events recorded outside the window (still
// retained in the rings) are filtered out, an event exactly at fromNs
// included, one exactly at toNs left to the next window.
func (s *Set) DumpWindow(w io.Writer, window int, fromNs, toNs int64) {
	if s == nil {
		return
	}
	fmt.Fprintf(w, "flight dump @ sample window %d [%.6fs, %.6fs)\n",
		window, float64(fromNs)/1e9, float64(toNs)/1e9)
	for _, r := range s.recs {
		r.DumpRange(w, fromNs, toNs)
	}
}
