package eval

import (
	"slices"
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

// TestSoakControllerCrashRecovers pins the ctl-crash scenario: the
// primary dies 8s in or once half the requests are submitted, whichever
// comes first, and the standby must take over exactly once and still
// land every object terminal without violations. The post-copy cell's
// pump is done before 8s, so only the halfway crash lands mid-soak there.
func TestSoakControllerCrashRecovers(t *testing.T) {
	short, postcopy := shortSoakConfig(), DefaultSoakConfig()
	short.Seeds = []uint64{3}
	postcopy.Requests, postcopy.Seeds, postcopy.Strategy, postcopy.CancelFraction = 80, []uint64{1}, "postcopy", 0.1
	for _, cfg := range []SoakConfig{short, postcopy} {
		cfg.Scenarios = slices.DeleteFunc(DefaultSoakScenarios(), func(sc SoakScenario) bool {
			return sc.Name != "healthy" && sc.Name != "ctl-crash"
		})
		rep, err := RunSoak(cfg)
		if err != nil {
			t.Fatal(err)
		}
		healthy, res := rep.Results[0], rep.Results[1]
		key := cfg.key(res.Scenario, res.Seed)
		if len(res.Violations) > 0 {
			t.Fatalf("%s: violations: %v", key, res.Violations)
		}
		if res.Takeovers != 1 {
			t.Fatalf("%s: takeovers = %d, want 1", key, res.Takeovers)
		}
		if res.Succeeded == 0 {
			t.Fatalf("%s: nothing succeeded after takeover", key)
		}
		if res.TraceHash == healthy.TraceHash {
			t.Fatalf("%s: trace hash %#x is healthy's: the crash landed after the soak", key, res.TraceHash)
		}
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
