package eval

import (
	"sync/atomic"
	"testing"
	"time"
)

func shortSoakConfig() SoakConfig {
	cfg := DefaultSoakConfig()
	cfg.Seeds = []uint64{1, 2}
	cfg.Requests = 40
	cfg.Horizon = 10 * time.Minute
	return cfg
}

// TestSoakRejectsNonPositiveCounts: a request, process or in-flight
// count of zero is a caller's error, reported before any cell runs.
func TestSoakRejectsNonPositiveCounts(t *testing.T) {
	for _, zero := range []func(*SoakConfig){
		func(c *SoakConfig) { c.Requests = 0 },
		func(c *SoakConfig) { c.Procs = 0 },
		func(c *SoakConfig) { c.Inflight = -1 },
	} {
		cfg := shortSoakConfig()
		zero(&cfg)
		if rep, err := RunSoak(cfg); err == nil {
			t.Errorf("ran %d cells with requests %d, procs %d, inflight %d", len(rep.Results), cfg.Requests, cfg.Procs, cfg.Inflight)
		}
	}
}

// TestSoakShortSweepHoldsAudits runs the full chaos battery at reduced
// request volume: every cell must finish with every object terminal and
// zero exactly-once / single-owner violations, so no cell is replayed
// and every scenario's Arm runs once per cell.
func TestSoakShortSweepHoldsAudits(t *testing.T) {
	cfg := shortSoakConfig()
	arms := make([]atomic.Int32, len(cfg.Scenarios))
	for i := range cfg.Scenarios {
		cfg.Scenarios[i].Arm = counted(cfg.Scenarios[i].Arm, &arms[i])
	}
	rep, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != len(cfg.Scenarios)*len(cfg.Seeds) {
		t.Fatalf("got %d cells", len(rep.Results))
	}
	for i, sc := range cfg.Scenarios {
		if n := arms[i].Load(); n != int32(len(cfg.Seeds)) {
			t.Errorf("%s: Arm ran %d times over %d cells", sc.Name, n, len(cfg.Seeds))
		}
	}
	for _, res := range rep.Results {
		if len(res.Violations) > 0 {
			t.Errorf("%s/seed%d violations: %v\nflight:\n%s",
				res.Scenario, res.Seed, res.Violations, res.FlightDump)
		}
		if res.Requests != cfg.Requests {
			t.Errorf("%s/seed%d submitted %d/%d requests", res.Scenario, res.Seed, res.Requests, cfg.Requests)
		}
		if res.Succeeded == 0 {
			t.Errorf("%s/seed%d: no migration succeeded", res.Scenario, res.Seed)
		}
		if res.Succeeded+res.Failed+res.Aborted != res.Requests {
			t.Errorf("%s/seed%d: terminal breakdown %d+%d+%d != %d", res.Scenario, res.Seed,
				res.Succeeded, res.Failed, res.Aborted, res.Requests)
		}
	}
	t.Logf("\n%s", rep.Table())
}

// TestSoakDeterministicAcrossWorkerCounts re-runs the same sweep at
// worker counts 1, 4 and 8: the per-cell trace hashes, outcome counts
// and retry counts must be byte-identical — cells are fully private and
// scheduling order inside a cell depends only on sim state.
func TestSoakDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg := shortSoakConfig()
	cfg.Scenarios = DefaultSoakScenarios()[:3] // healthy, lossy, dup-reorder
	cfg.Seeds = []uint64{7}
	base, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4, 8} {
		c2 := cfg
		c2.Workers = w
		rep, err := RunSoak(c2)
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range rep.Results {
			b := base.Results[i]
			if res.TraceHash != b.TraceHash {
				t.Errorf("workers=%d %s/seed%d trace hash %#x != %#x",
					w, res.Scenario, res.Seed, res.TraceHash, b.TraceHash)
			}
			if res.Succeeded != b.Succeeded || res.Failed != b.Failed ||
				res.Aborted != b.Aborted || res.Retries != b.Retries ||
				res.Dispatches != b.Dispatches || res.Resends != b.Resends {
				t.Errorf("workers=%d %s/seed%d outcome drift: %+v vs %+v", w, res.Scenario, res.Seed, res, b)
			}
		}
	}
}

// TestSoakControllerCrashRecovers pins the ctl-crash scenario: the
// primary dies 8s in, the standby must take over exactly once and still
// land every object terminal without violations.
func TestSoakControllerCrashRecovers(t *testing.T) {
	cfg := shortSoakConfig()
	for _, sc := range DefaultSoakScenarios() {
		if sc.Name == "ctl-crash" {
			cfg.Scenarios = []SoakScenario{sc}
		}
	}
	cfg.Seeds = []uint64{3}
	rep, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Results[0]
	if len(res.Violations) > 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Takeovers != 1 {
		t.Fatalf("takeovers = %d, want 1", res.Takeovers)
	}
	if res.Succeeded == 0 {
		t.Fatal("nothing succeeded after takeover")
	}
}

// TestSoakObserveMerges checks the obs plumbing: captures merge.
func TestSoakObserveMerges(t *testing.T) {
	cfg := shortSoakConfig()
	cfg.Scenarios = DefaultSoakScenarios()[:1]
	cfg.Seeds = []uint64{1}
	cfg.Requests = 12
	cfg.Observe = true
	rep, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Captures()) != 1 {
		t.Fatalf("captures = %d", len(rep.Captures()))
	}
	snap, err := rep.MergedSnapshot()
	if err != nil || snap == nil {
		t.Fatalf("merge: %v %v", snap, err)
	}
}
