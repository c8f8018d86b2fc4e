package migration

import (
	"testing"
	"time"

	"dvemig/internal/simtime"
)

// TestBackoffScheduleIsPinned locks the exact retry schedule: the
// deterministic exponential envelope without jitter, and the
// seed-deterministic jittered sequence (same seed → same delays on any
// machine, any worker count). Changing either is a replay-compatibility
// break and must be deliberate.
func TestBackoffScheduleIsPinned(t *testing.T) {
	b := BackoffPolicy{Base: 100 * time.Millisecond, Max: 2 * time.Second}
	want := []simtime.Duration{
		100 * time.Millisecond,  // attempt 1
		200 * time.Millisecond,  // 2: doubled
		400 * time.Millisecond,  // 3
		800 * time.Millisecond,  // 4
		1600 * time.Millisecond, // 5
		2 * time.Second,         // 6: capped at Max
		2 * time.Second,         // 7: stays capped
	}
	for i, w := range want {
		if got := b.Delay(i+1, nil); got != w {
			t.Fatalf("Delay(%d) = %v, want %v", i+1, got, w)
		}
	}

	// Jittered: pinned against simtime.Rand(42). The jitter only ever
	// extends a delay (never below the envelope) and is drawn from the
	// caller's rng, so the whole schedule is a pure function of the seed.
	jb := BackoffPolicy{Base: 100 * time.Millisecond, Max: 2 * time.Second, Jitter: 0.5}
	wantJ := []simtime.Duration{
		116954263, 278225584, 558027409, 1177617053, 2211514942, 2835739858,
	}
	rng := simtime.NewRand(42)
	for i, w := range wantJ {
		got := jb.Delay(i+1, rng)
		if got != w {
			t.Fatalf("jittered Delay(%d) = %d, want %d", i+1, int64(got), int64(w))
		}
		envelope := b.Delay(i+1, nil)
		if got < envelope || got > envelope+envelope/2 {
			t.Fatalf("jittered Delay(%d) = %v outside [env, 1.5*env] around %v", i+1, got, envelope)
		}
	}

	// Schedule is Delay folded over one rng.
	rng2 := simtime.NewRand(42)
	sched := jb.Schedule(6, rng2)
	for i, w := range wantJ {
		if sched[i] != w {
			t.Fatalf("Schedule[%d] = %d, want %d", i, int64(sched[i]), int64(w))
		}
	}
}

// TestEngineRetrySchedule pins the engine's wiring of the shared
// policy: Config{RetryBackoff, RetryBackoffMax, RetryJitter} must
// produce the same schedule as the standalone BackoffPolicy — the
// control plane and the engine retry off one definition.
func TestEngineRetrySchedule(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetryBackoff = 50 * time.Millisecond
	cfg.RetryBackoffMax = 300 * time.Millisecond
	p := cfg.retryPolicy()
	want := []simtime.Duration{50e6, 100e6, 200e6, 300e6, 300e6}
	for i, w := range want {
		if got := p.Delay(i+1, nil); got != w {
			t.Fatalf("engine Delay(%d) = %v, want %v", i+1, got, w)
		}
	}
	if p.Jitter != 0 {
		t.Fatal("default config must keep the exact historical schedule (no jitter)")
	}
	cfg.RetryJitter = 0.25
	if got := cfg.retryPolicy().Jitter; got != 0.25 {
		t.Fatalf("RetryJitter not threaded: %v", got)
	}
}
