package eval

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"dvemig/internal/migration"
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

// TestFreezeQuiescenceIsFinal proves drain's stopping rule: a cell
// driven to quiescence and then run 30 simulated seconds more reports
// the same migration metrics and the same client retransmissions, in
// every socket strategy × migration strategy × capture setting.
func TestFreezeQuiescenceIsFinal(t *testing.T) {
	var cells []FreezeConfig
	for _, conns := range []int{2, 16, 64} {
		for _, s := range SweepStrategies {
			for _, mig := range []*migration.Strategy{migration.Precopy(), migration.Postcopy(), migration.Hybrid()} {
				for _, capture := range []bool{true, false} {
					for _, seed := range []uint64{1, 2} {
						fc := DefaultFreezeConfig(s, conns)
						fc.MigCfg.Mig = mig
						fc.MigCfg.EnableCapture = capture
						fc.Seed = seed
						cells = append(cells, fc)
					}
				}
			}
		}
	}
	_, err := RunParallel(cells, 0, nil, func(fc FreezeConfig) (struct{}, error) {
		name := fmt.Sprintf("conns %d %s %s capture=%v seed %d",
			fc.Conns, fc.Strategy, fc.MigCfg.Mig.Name(), fc.MigCfg.EnableCapture, fc.Seed)
		c, err := buildFreezeCell(fc, 0)
		if err != nil {
			return struct{}{}, fmt.Errorf("%s: %w", name, err)
		}
		c.migrate()
		if err := c.drain(); err != nil {
			return struct{}{}, fmt.Errorf("%s: %w", name, err)
		}
		m, retrans := c.result()
		quiesced := *m
		c.f.sched.RunFor(30e9)
		m, later := c.result()
		if !reflect.DeepEqual(&quiesced, m) {
			return struct{}{}, fmt.Errorf("%s: metrics moved after quiescence:\n%+v\n%+v", name, quiesced, *m)
		}
		if later != retrans {
			return struct{}{}, fmt.Errorf("%s: client retransmits %d at quiescence, %d 30 s later", name, retrans, later)
		}
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCaptureOffAblationShowsLoss: without capture the segments clients
// lose in the freeze window come back by retransmission, and the point
// counts them; with capture nothing is lost.
func TestCaptureOffAblationShowsLoss(t *testing.T) {
	for _, capture := range []bool{true, false} {
		fc := DefaultFreezeConfig(sockmig.IncrementalCollective, 128)
		fc.Repeats = 4
		fc.MigCfg.EnableCapture = capture
		pt, err := RunFreezePoint(fc)
		if err != nil {
			t.Fatal(err)
		}
		if capture && pt.ClientRetransmits != 0 {
			t.Errorf("capture on: clients retransmitted %d times, want 0", pt.ClientRetransmits)
		}
		if !capture && pt.ClientRetransmits == 0 {
			t.Error("capture off: no client retransmissions counted, want the freeze window's losses")
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
