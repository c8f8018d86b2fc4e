package flight

import (
	"strings"
	"testing"
)

func TestRecorderRingSemantics(t *testing.T) {
	r := New("node1", 4)
	if r.Len() != 0 || r.Total() != 0 || r.Events() != nil {
		t.Fatal("fresh recorder not empty")
	}
	for i := 0; i < 3; i++ {
		r.Record(int64(i), "sched", "tick", int64(i), 0, 0)
	}
	ev := r.Events()
	if len(ev) != 3 || ev[0].At != 0 || ev[2].At != 2 {
		t.Fatalf("partial ring = %+v", ev)
	}
	// Overflow: only the last 4 survive, oldest first.
	for i := 3; i < 10; i++ {
		r.Record(int64(i), "sched", "tick", int64(i), 0, 0)
	}
	ev = r.Events()
	if len(ev) != 4 || r.Total() != 10 {
		t.Fatalf("len=%d total=%d", len(ev), r.Total())
	}
	for i, e := range ev {
		if want := int64(6 + i); e.At != want || e.A != want {
			t.Fatalf("event %d = %+v, want At=%d", i, e, want)
		}
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Record(1, "k", "n", 0, 0, 0) // must not panic
	if r.Len() != 0 || r.Total() != 0 || r.Events() != nil {
		t.Fatal("nil recorder not inert")
	}
	var b strings.Builder
	r.Dump(&b)
	if b.Len() != 0 {
		t.Fatal("nil recorder dumped output")
	}
	var s *Set
	if s.Recorders() != nil {
		t.Fatal("nil set returned recorders")
	}
	s.Dump(&b) // must not panic
}

func TestDumpFormat(t *testing.T) {
	s := NewSet()
	r := s.Track("node1")
	r.Record(1_500_000, "phase", "freeze", 101, 0, 250_000)
	r.Record(2_000_000, "pkt", "rx", 7, 9, 42)
	var b strings.Builder
	s.Dump(&b)
	out := b.String()
	if !strings.Contains(out, "flight node1: 2/2 events retained") {
		t.Fatalf("missing header:\n%s", out)
	}
	if !strings.Contains(out, "phase") || !strings.Contains(out, "freeze") ||
		!strings.Contains(out, "a=101") || !strings.Contains(out, "c=250000") {
		t.Fatalf("missing event fields:\n%s", out)
	}
	// Events render oldest first.
	if strings.Index(out, "freeze") > strings.Index(out, "rx") {
		t.Fatalf("events not oldest-first:\n%s", out)
	}
}

// TestDumpWindowBoundaries pins the half-open [From, To) window
// semantics: an event timestamped exactly at From is part of the
// window, one exactly at To belongs to the next window.
func TestDumpWindowBoundaries(t *testing.T) {
	s := NewSet()
	r := s.Track("node1")
	from, to := int64(1_000_000_000), int64(2_000_000_000)
	r.Record(from-1, "pkt", "before", 1, 0, 0)
	r.Record(from, "pkt", "at-from", 2, 0, 0)
	r.Record(from+500_000_000, "pkt", "inside", 3, 0, 0)
	r.Record(to, "pkt", "at-to", 4, 0, 0)
	r.Record(to+1, "pkt", "after", 5, 0, 0)

	var b strings.Builder
	s.DumpWindow(&b, 1, from, to)
	out := b.String()
	if !strings.Contains(out, "flight dump @ sample window 1 [1.000000s, 2.000000s)") {
		t.Fatalf("missing locator header:\n%s", out)
	}
	if !strings.Contains(out, "at-from") || !strings.Contains(out, "inside") {
		t.Fatalf("window dropped in-range events (At==From must be included):\n%s", out)
	}
	for _, name := range []string{"before", "at-to", "after"} {
		if strings.Contains(out, name) {
			t.Fatalf("window leaked out-of-range event %q (At==To must be excluded):\n%s", name, out)
		}
	}
	if !strings.Contains(out, "flight node1: 2/5 retained events in window") {
		t.Fatalf("header does not report the filtered count:\n%s", out)
	}
}

// TestDumpRangeEmptyAndNil covers the degenerate windows: an empty
// window dumps a header and nothing else, and a nil recorder is a no-op.
func TestDumpRangeEmptyAndNil(t *testing.T) {
	r := New("node1", 4)
	r.Record(10, "pkt", "rx", 1, 0, 0)
	var b strings.Builder
	r.DumpRange(&b, 100, 200)
	if !strings.Contains(b.String(), "0/1 retained events in window") {
		t.Fatalf("empty window header wrong:\n%s", b.String())
	}
	if strings.Contains(b.String(), "rx") {
		t.Fatalf("empty window leaked events:\n%s", b.String())
	}
	var nilR *Recorder
	b.Reset()
	nilR.DumpRange(&b, 0, 100)
	if b.Len() != 0 {
		t.Fatalf("nil recorder wrote output: %q", b.String())
	}
}

// BenchmarkRecord pins the flight recorder's steady-state recording cost
// at zero allocations: the ring overwrites in place and never copies the
// event strings.
func BenchmarkRecord(b *testing.B) {
	r := New("bench", 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Record(int64(i), "pkt", "rx", int64(i), int64(i*2), 0)
	}
	if r.Total() != uint64(b.N) {
		b.Fatal("lost events")
	}
}
