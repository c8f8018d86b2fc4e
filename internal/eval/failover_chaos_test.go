package eval

import (
	"fmt"
	"testing"
)

// TestFailoverChaosBattery sweeps the failover scenarios over two
// seeds: every cell must pass the exactly-once, single-owner and
// mute-stale-owner audits, and repeat bit-identically — same packet
// trace hash — under the same seed.
func TestFailoverChaosBattery(t *testing.T) {
	seeds := []uint64{1, 2}
	for _, sc := range DefaultFailoverScenarios() {
		for _, seed := range seeds {
			sc, seed := sc, seed
			t.Run(fmt.Sprintf("%s/seed-%d", sc.Name, seed), func(t *testing.T) {
				a, err := RunFailoverScenario(sc, seed)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range a.Violations {
					t.Errorf("violation: %s", v)
				}
				if a.PendingAfterDrain != 0 {
					t.Errorf("%d events still pending after drain (leaked timer)", a.PendingAfterDrain)
				}
				if a.RepliesTotal == 0 {
					t.Fatal("scoreboard never answered a single ping")
				}
				b, err := RunFailoverScenario(sc, seed)
				if err != nil {
					t.Fatal(err)
				}
				if a.TraceHash != b.TraceHash {
					t.Fatalf("trace hash differs across identical runs: %#x vs %#x",
						a.TraceHash, b.TraceHash)
				}
				if len(b.Violations) != len(a.Violations) {
					t.Fatalf("violation count differs across identical runs")
				}
			})
		}
	}
}

// TestFailoverSweepTable smoke-tests the report rendering.
func TestFailoverSweepTable(t *testing.T) {
	rep, err := RunFailoverSweep(DefaultFailoverScenarios()[:1], []uint64{1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 {
		t.Fatalf("results = %d", len(rep.Results))
	}
	if s := rep.Table(); len(s) == 0 {
		t.Fatal("empty table")
	}
}
