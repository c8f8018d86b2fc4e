package eval

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestRunParallelOrder checks the canonical-order merge: results land at
// their cell's index regardless of worker count or completion order.
func TestRunParallelOrder(t *testing.T) {
	cells := make([]int, 100)
	for i := range cells {
		cells[i] = i
	}
	for _, workers := range []int{0, 1, 3, 7, 200} {
		out, err := RunParallel(cells, workers, func(c int) (int, error) {
			return c * c, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestRunParallelErrors checks the error policy: every cell runs even
// when some fail, and the reported error is the first failure in
// canonical cell order — not the first to happen on the wall clock.
func TestRunParallelErrors(t *testing.T) {
	cells := []int{0, 1, 2, 3, 4, 5, 6, 7}
	var ran atomic.Int64
	_, err := RunParallel(cells, 4, func(c int) (int, error) {
		ran.Add(1)
		if c == 3 || c == 6 {
			return 0, fmt.Errorf("cell %d failed", c)
		}
		return c, nil
	})
	if err == nil || err.Error() != "cell 3 failed" {
		t.Fatalf("err = %v, want first canonical failure (cell 3)", err)
	}
	if int(ran.Load()) != len(cells) {
		t.Fatalf("ran %d cells, want all %d", ran.Load(), len(cells))
	}
}

// TestRunParallelEmpty checks the degenerate inputs.
func TestRunParallelEmpty(t *testing.T) {
	out, err := RunParallel(nil, 4, func(int) (int, error) {
		return 0, errors.New("must not run")
	})
	if err != nil || len(out) != 0 {
		t.Fatalf("out=%v err=%v, want empty and nil", out, err)
	}
}

// TestChaosSweepParallelMatchesSerial pins the headline determinism
// guarantee of the parallel runner: the full chaos battery produces
// bit-identical results — packet trace hashes included — at workers=1
// (the serial path, no goroutines) and workers=4.
func TestChaosSweepParallelMatchesSerial(t *testing.T) {
	cfg := DefaultChaosConfig()
	cfg.Seeds = []uint64{1}

	cfg.Workers = 1
	serial, err := RunChaosSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	parallel, err := RunChaosSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Results) != len(parallel.Results) {
		t.Fatalf("cell count differs: %d vs %d", len(serial.Results), len(parallel.Results))
	}
	for i, a := range serial.Results {
		b := parallel.Results[i]
		if a.Scenario != b.Scenario || a.Seed != b.Seed {
			t.Fatalf("cell %d: order differs: %s/%d vs %s/%d", i, a.Scenario, a.Seed, b.Scenario, b.Seed)
		}
		if a.TraceHash != b.TraceHash {
			t.Errorf("%s/seed%d: trace hash differs serial %#x vs parallel %#x",
				a.Scenario, a.Seed, a.TraceHash, b.TraceHash)
		}
		if a.Survived != b.Survived || a.Completed != b.Completed || a.Aborted != b.Aborted ||
			a.ClientRetransmits != b.ClientRetransmits ||
			len(a.Violations) != len(b.Violations) ||
			a.PendingAfterDrain != b.PendingAfterDrain {
			t.Errorf("%s/seed%d: outcome differs serial %+v vs parallel %+v",
				a.Scenario, a.Seed, a, b)
		}
	}
}

// TestFailoverSweepParallelMatchesSerial pins the same guarantee for
// the failover battery.
func TestFailoverSweepParallelMatchesSerial(t *testing.T) {
	scenarios := DefaultFailoverScenarios()
	seeds := []uint64{1}
	serial, err := RunFailoverSweep(scenarios, seeds, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunFailoverSweep(scenarios, seeds, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Results) != len(parallel.Results) {
		t.Fatalf("cell count differs: %d vs %d", len(serial.Results), len(parallel.Results))
	}
	for i, a := range serial.Results {
		b := parallel.Results[i]
		if a.Scenario != b.Scenario || a.Seed != b.Seed {
			t.Fatalf("cell %d: order differs", i)
		}
		if a.TraceHash != b.TraceHash {
			t.Errorf("%s/seed%d: trace hash differs serial %#x vs parallel %#x",
				a.Scenario, a.Seed, a.TraceHash, b.TraceHash)
		}
		if a.Activations != b.Activations || a.OwnerNode != b.OwnerNode ||
			a.RepliesTotal != b.RepliesTotal || len(a.Violations) != len(b.Violations) {
			t.Errorf("%s/seed%d: outcome differs serial %+v vs parallel %+v",
				a.Scenario, a.Seed, a, b)
		}
	}
}

// TestFreezeSweepParallelMatchesSerial pins the guarantee for the Fig
// 5b/5c grid (a smaller-than-default grid keeps the test quick).
func TestFreezeSweepParallelMatchesSerial(t *testing.T) {
	conns := []int{16, 32}
	tmpl := DefaultFreezeConfig(0, 0)
	tmpl.Repeats, tmpl.Workers = 2, 1
	serial, err := RunFreezeSweep(conns, SweepStrategies, tmpl)
	if err != nil {
		t.Fatal(err)
	}
	tmpl.Workers = 4
	parallel, err := RunFreezeSweep(conns, SweepStrategies, tmpl)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("point count differs: %d vs %d", len(serial), len(parallel))
	}
	for i, a := range serial {
		b := parallel[i]
		if a.Conns != b.Conns || a.Strategy != b.Strategy {
			t.Fatalf("point %d: order differs: %d/%v vs %d/%v", i, a.Conns, a.Strategy, b.Conns, b.Strategy)
		}
		if a.WorstFreeze != b.WorstFreeze || a.WorstSockBytes != b.WorstSockBytes ||
			a.ClientRetransmits != b.ClientRetransmits {
			t.Errorf("point %d (%v/%d conns): measurements differ serial (%v, %d, %d) vs parallel (%v, %d, %d)",
				i, a.Strategy, a.Conns,
				a.WorstFreeze, a.WorstSockBytes, a.ClientRetransmits,
				b.WorstFreeze, b.WorstSockBytes, b.ClientRetransmits)
		}
	}
}
