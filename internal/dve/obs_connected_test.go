package dve

import (
	"bytes"
	"testing"

	"dvemig/internal/obs"
)

// TestLBTraceConnected is the end-to-end acceptance check for the
// causal layer: a planned migration under the LB middleware (the
// `dvesim -lb -trace-out` path) must export one connected trace — the
// conductor's rebalance decision roots the tree, the source migration
// span links under it, and the destination's inbound restore span links
// across the node boundary. obs.CheckConnected (the `report tracecheck
// -connected` mode) asserts every span resolves to its trace root and
// at least one tree spans both sides of a migration.
func TestLBTraceConnected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 300 * 1e9
	cfg.MoveStart = 30 * 1e9
	cfg.MoveProb = 0.08
	cfg.LB = true
	cfg.LBConfig.CalmDown = 8e9
	cfg.LBConfig.ImbalanceThreshold = 0.08
	cfg.Observe = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := s.Run()
	if r.Migrations == 0 {
		t.Fatal("LB performed no migrations; nothing to trace")
	}
	cap := s.CaptureObs("dve/lb=true")
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, cap); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("exported trace fails schema validation: %v", err)
	}
	if err := obs.CheckConnected(buf.Bytes()); err != nil {
		t.Fatalf("exported trace is not connected: %v", err)
	}

	// The metrics artifact of the same run must validate too.
	var mb bytes.Buffer
	if err := obs.WriteMetricsText(&mb, cap); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateMetricsText(mb.Bytes()); err != nil {
		t.Fatalf("exported metrics fail validation: %v", err)
	}
}
