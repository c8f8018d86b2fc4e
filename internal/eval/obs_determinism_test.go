package eval

import (
	"bytes"
	"testing"

	"dvemig/internal/obs"
)

// TestObsParallelMatchesSerial is the determinism contract of the
// observability plane: the -trace-out and -metrics-out artifacts of an
// observed sweep must be byte-identical whether the sweep ran on 1, 4
// or 8 workers. Each cell owns a private scheduler and a private obs
// plane, captures merge in canonical (conns-major, strategy-minor,
// repeat-ordered) order, and the exporters emit in recorded order — so
// worker scheduling can never leak into the files. The CI build-test
// job runs this under -race, which also proves the observed cells
// share no mutable state.
func TestObsParallelMatchesSerial(t *testing.T) {
	conns := []int{16, 32}
	repeats := 2
	if testing.Short() {
		conns = []int{16}
		repeats = 1
	}
	render := func(workers int) (trace, metrics []byte) {
		tmpl := DefaultFreezeConfig(0, 0)
		tmpl.Repeats, tmpl.Workers, tmpl.Observe = repeats, workers, true
		points, err := RunFreezeSweep(conns, SweepStrategies, tmpl)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var caps []*obs.Capture
		for _, pt := range points {
			if len(pt.Caps) != repeats {
				t.Fatalf("workers=%d: point %d/%s has %d captures, want %d",
					workers, pt.Conns, pt.Strategy, len(pt.Caps), repeats)
			}
			caps = append(caps, pt.Caps...)
		}
		var tb, mb bytes.Buffer
		if err := obs.WriteChromeTrace(&tb, caps...); err != nil {
			t.Fatal(err)
		}
		if err := obs.WriteMetricsText(&mb, caps...); err != nil {
			t.Fatal(err)
		}
		if err := obs.ValidateChromeTrace(tb.Bytes()); err != nil {
			t.Fatalf("workers=%d: invalid trace: %v", workers, err)
		}
		return tb.Bytes(), mb.Bytes()
	}

	refTrace, refMetrics := render(1)
	if len(refTrace) == 0 || len(refMetrics) == 0 {
		t.Fatal("serial artifacts empty")
	}
	for _, w := range []int{4, 8} {
		gotTrace, gotMetrics := render(w)
		if !bytes.Equal(refTrace, gotTrace) {
			t.Errorf("trace artifact differs at workers=%d (%d vs %d bytes)", w, len(refTrace), len(gotTrace))
		}
		if !bytes.Equal(refMetrics, gotMetrics) {
			t.Errorf("metrics artifact differs at workers=%d (%d vs %d bytes)", w, len(refMetrics), len(gotMetrics))
		}
	}
}
