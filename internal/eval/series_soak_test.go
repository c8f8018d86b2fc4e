package eval

import (
	"bytes"
	"hash/fnv"
	"strings"
	"testing"
	"time"

	"dvemig/internal/obs"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
)

// TestSoakIncrementalAuditCanary injects a deliberate single-owner
// violation mid-run — a forged duplicate commit of a running service on
// two other workers at t=8.5s — and asserts the incremental audit flags
// it inside its containing sample window (index 8 at the default 1 s
// cadence), not at teardown, with the flight dump scoped to that
// window. This is the detection-latency contract: a soak that only
// audits at quiescence reports "something broke" hours late; the
// windowed audit names the second it happened.
func TestSoakIncrementalAuditCanary(t *testing.T) {
	cfg := shortSoakConfig()
	cfg.Seeds = []uint64{1}
	cfg.FlightDepth = 256
	canary := SoakScenario{
		Name: "canary-dup",
		Arm: func(e *SoakEnv) {
			e.Sched.After(8500*simtime.Duration(time.Millisecond), "canary.dup", func() {
				// Two duplicates: even if the original is frozen mid-migration
				// at this instant, two owners are running — the forged state
				// can never masquerade as a legal freeze window.
				for _, n := range []*proc.Node{e.Workers[1], e.Workers[2]} {
					d := n.Spawn("svc00", 1)
					d.CPUDemand = 0.05
				}
			})
		},
	}
	cfg.Scenarios = []SoakScenario{canary}
	rep, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Results[0]
	if len(res.Violations) == 0 {
		t.Fatal("canary not detected at all")
	}
	if res.FirstViolationWindow != 8 {
		t.Fatalf("first violation in window %d, want 8 (injection at 8.5s, 1s cadence)\nviolations: %v",
			res.FirstViolationWindow, res.Violations)
	}
	if !strings.Contains(res.Violations[0], "window 8 [8s, 9s)") {
		t.Fatalf("violation not window-scoped: %q", res.Violations[0])
	}
	if !strings.Contains(res.Violations[0], "single-owner broken: svc00") {
		t.Fatalf("unexpected first violation: %q", res.Violations[0])
	}
	if !strings.Contains(res.FlightDump, "flight dump @ sample window 8 [8.000000s, 9.000000s)") {
		t.Fatalf("flight dump not scoped to the violating window:\n%.200s", res.FlightDump)
	}
	// The dump, byte for byte, as recorded at e5dadc0: the NIC tracks in it
	// are written by the flight adapter on the packet tap, and nothing
	// else pins their records (88 807 bytes, most of them "pkt" lines).
	h := fnv.New64a()
	h.Write([]byte(res.FlightDump))
	if h.Sum64() != 0x2c7a749f94a39bf9 {
		t.Errorf("flight dump FNV-64a = %#x over %d bytes, want 0x2c7a749f94a39bf9", h.Sum64(), len(res.FlightDump))
	}
}

// TestSoakSamplingDisabledFallsBackToTeardown is the control for the
// canary: with sampling off the same violation is still caught, but
// only by the teardown audit (window -1, unscoped dump).
func TestSoakSamplingDisabledFallsBackToTeardown(t *testing.T) {
	cfg := shortSoakConfig()
	cfg.Seeds = []uint64{1}
	cfg.Requests = 20
	cfg.FlightDepth = 64
	cfg.SamplePeriod = -1
	cfg.Scenarios = []SoakScenario{{
		Name: "canary-dup",
		Arm: func(e *SoakEnv) {
			e.Sched.After(5*simtime.Duration(time.Second), "canary.dup", func() {
				for _, n := range []*proc.Node{e.Workers[1], e.Workers[2]} {
					d := n.Spawn("svc00", 1)
					d.CPUDemand = 0.05
				}
			})
		},
	}}
	rep, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Results[0]
	if res.Windows != 0 || res.FirstViolationWindow != -1 {
		t.Fatalf("sampling should be off: windows=%d first=%d", res.Windows, res.FirstViolationWindow)
	}
	if len(res.Violations) == 0 {
		t.Fatal("teardown audit missed the canary")
	}
	if strings.Contains(res.FlightDump, "sample window") {
		t.Fatalf("dump should be unscoped with sampling off:\n%.120s", res.FlightDump)
	}
	if res.FlightDump == "" {
		t.Fatal("no flight dump at teardown")
	}
	if tbl := rep.SLOTable(); tbl != "" {
		t.Fatalf("SLO table with sampling off: %q", tbl)
	}
}

// TestSoakSeriesArtifactDeterministic re-runs an observed sweep at
// worker counts 1, 4 and 8 and asserts the exported series artifact —
// timestamps, values, SLO verdicts, byte for byte — is identical. The
// sampler's aligned ticks are state-independent, so parallelism must
// not show in the artifact.
func TestSoakSeriesArtifactDeterministic(t *testing.T) {
	cfg := shortSoakConfig()
	cfg.Scenarios = DefaultSoakScenarios()[:2] // healthy, lossy
	cfg.Seeds = []uint64{5}
	cfg.Requests = 25
	cfg.Observe = true
	var base []byte
	for _, w := range []int{1, 4, 8} {
		c := cfg
		c.Workers = w
		rep, err := RunSoak(c)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := obs.WriteSeriesJSON(&buf, rep.Captures()...); err != nil {
			t.Fatal(err)
		}
		if err := obs.ValidateSeriesJSON(buf.Bytes()); err != nil {
			t.Fatalf("workers=%d: invalid series artifact: %v", w, err)
		}
		if base == nil {
			base = append([]byte(nil), buf.Bytes()...)
			continue
		}
		if !bytes.Equal(base, buf.Bytes()) {
			t.Fatalf("workers=%d series artifact differs from workers=1 (%d vs %d bytes)",
				w, len(buf.Bytes()), len(base))
		}
	}
}

// TestSoakSLOResultsRecorded checks the SLO engine rides along: every
// observed cell carries a verdict per default objective, evaluated over
// at least one window, and the report renders the table.
func TestSoakSLOResultsRecorded(t *testing.T) {
	cfg := shortSoakConfig()
	cfg.Scenarios = DefaultSoakScenarios()[:1]
	cfg.Seeds = []uint64{1}
	cfg.Requests = 15
	cfg.Observe = true
	rep, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Results[0]
	if len(res.SLO) != len(DefaultSoakSLOs()) {
		t.Fatalf("SLO verdicts = %d, want %d", len(res.SLO), len(DefaultSoakSLOs()))
	}
	for _, s := range res.SLO {
		if s.Samples == 0 {
			t.Fatalf("%s evaluated over 0 windows", s.Name)
		}
		if len(s.Burns) != len(obs.DefaultBurnWindows) {
			t.Fatalf("%s burns = %+v", s.Name, s.Burns)
		}
	}
	if res.Windows == 0 || res.Obs.Series == nil {
		t.Fatalf("no sampled windows: %d / %v", res.Windows, res.Obs.Series)
	}
	tbl := rep.SLOTable()
	if !strings.Contains(tbl, "downtime-p99") || !strings.Contains(tbl, "retry-budget") {
		t.Fatalf("SLO table incomplete:\n%s", tbl)
	}
}

// TestLossySoakMeetsDowntimeSLO pins the downtime objective on the lossy
// cells of the artifact soak (80 requests, seeds 1 and 2). Their tail is
// migd segments lost inside the freeze window or during a demand pull:
// with the migd connections' own retransmission floor each loss costs
// two jiffies, where TCP_RTO_MIN put the p99 at 690–790 ms.
func TestLossySoakMeetsDowntimeSLO(t *testing.T) {
	cfg := DefaultSoakConfig()
	cfg.Scenarios = DefaultSoakScenarios()[1:2]
	cfg.Seeds = []uint64{1, 2}
	cfg.Requests = 80
	cfg.Observe = true
	if cfg.Scenarios[0].Name != "lossy" {
		t.Fatalf("scenario list reordered: picked %s", cfg.Scenarios[0].Name)
	}
	rep, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range rep.Results {
		var dt *obs.SLOResult
		for _, s := range res.SLO {
			if s.Name == "downtime-p99" {
				dt = s
			}
		}
		if dt == nil || dt.Samples == 0 {
			t.Fatalf("lossy/seed%d: no downtime-p99 verdict over sampled windows", res.Seed)
		}
		if !dt.Met {
			t.Errorf("lossy/seed%d: downtime p99 %.1f ms misses the %.0f ms objective",
				res.Seed, dt.Overall/1e3, dt.Objective.Max/1e3)
		}
	}
}
