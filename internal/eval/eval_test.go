package eval

import (
	"strings"
	"testing"
	"time"

	"dvemig/internal/sockmig"
)

func TestFreezePointOrderingSmall(t *testing.T) {
	results := map[sockmig.Strategy]*FreezePoint{}
	for _, s := range SweepStrategies {
		fc := DefaultFreezeConfig(s, 64)
		fc.Repeats = 1
		pt, err := RunFreezePoint(fc)
		if err != nil {
			t.Fatal(err)
		}
		results[s] = pt
	}
	it, co, inc := results[sockmig.Iterative], results[sockmig.Collective], results[sockmig.IncrementalCollective]
	if !(it.WorstFreeze > co.WorstFreeze && co.WorstFreeze > inc.WorstFreeze) {
		t.Fatalf("freeze ordering violated: it=%v co=%v inc=%v",
			it.WorstFreeze, co.WorstFreeze, inc.WorstFreeze)
	}
	if inc.WorstSockBytes*2 > co.WorstSockBytes {
		t.Fatalf("incremental bytes %d not ≪ collective %d", inc.WorstSockBytes, co.WorstSockBytes)
	}
	// Full-state strategies move the same bytes (same data, different
	// message pattern).
	ratio := float64(it.WorstSockBytes) / float64(co.WorstSockBytes)
	if ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("iterative vs collective bytes diverge: %v", ratio)
	}
	// Capture keeps clients from retransmitting.
	for s, pt := range results {
		if pt.ClientRetransmits != 0 {
			t.Fatalf("%v: clients retransmitted %d times with capture on", s, pt.ClientRetransmits)
		}
	}
}

func TestFreezeBytesScaleRoughlyLinearly(t *testing.T) {
	get := func(n int) uint64 {
		fc := DefaultFreezeConfig(sockmig.Collective, n)
		fc.Repeats = 1
		pt, err := RunFreezePoint(fc)
		if err != nil {
			t.Fatal(err)
		}
		return pt.WorstSockBytes
	}
	b32, b128 := get(32), get(128)
	ratio := float64(b128) / float64(b32)
	if ratio < 3.2 || ratio > 4.8 {
		t.Fatalf("bytes ratio 128/32 = %v, want ≈4", ratio)
	}
}

func TestTables(t *testing.T) {
	fc := DefaultFreezeConfig(sockmig.IncrementalCollective, 16)
	fc.Repeats = 1
	pt, err := RunFreezePoint(fc)
	if err != nil {
		t.Fatal(err)
	}
	fb := Fig5bTable([]*FreezePoint{pt})
	if !strings.Contains(fb, "16") || !strings.Contains(fb, "incremental") {
		t.Fatalf("fig5b table:\n%s", fb)
	}
	fcT := Fig5cTable([]*FreezePoint{pt})
	if !strings.Contains(fcT, "kB") && !strings.Contains(fcT, "B") {
		t.Fatalf("fig5c table:\n%s", fcT)
	}
	// Missing cells render as dashes.
	if !strings.Contains(fb, "-") {
		t.Fatal("missing strategies should show dashes")
	}
}

func TestFmtBytes(t *testing.T) {
	cases := map[uint64]string{
		512:     "512B",
		2048:    "2.0kB",
		3 << 20: "3.00MB",
	}
	for in, want := range cases {
		if got := fmtBytes(in); got != want {
			t.Fatalf("fmtBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestDispatchComparisonBroadcastBeatsNAT(t *testing.T) {
	cfg := DefaultDispatchConfig()
	broadcast, nat, err := RunDispatchComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if broadcast.Lost > 0 {
		t.Fatalf("broadcast+capture lost %d datagrams", broadcast.Lost)
	}
	// NAT loses about rate × (freeze ∪ update window) = 1000/s × 10ms ≈ 10.
	if nat.Lost < 5 {
		t.Fatalf("NAT baseline lost only %d datagrams; window not modelled", nat.Lost)
	}
	if nat.Lost > 20 {
		t.Fatalf("NAT baseline lost %d datagrams; way beyond the window", nat.Lost)
	}
	if broadcast.Sent != nat.Sent {
		t.Fatalf("runs not comparable: %d vs %d sent", broadcast.Sent, nat.Sent)
	}
	if !strings.Contains(nat.Mode, "nat") || !strings.Contains(broadcast.Mode, "broadcast") {
		t.Fatal("mode labels wrong")
	}
}

func TestDispatchNATUpdateEventuallyHeals(t *testing.T) {
	cfg := DefaultDispatchConfig()
	cfg.Duration = 3 * time.Duration(1e9)
	_, nat, err := RunDispatchComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Loss is bounded by the window: tripling the run must not triple it.
	if nat.Lost > 25 {
		t.Fatalf("loss grew with run length: %d", nat.Lost)
	}
}
