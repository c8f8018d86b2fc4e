package migration

import (
	"errors"
	"testing"
	"time"

	"dvemig/internal/proc"
	"dvemig/internal/simtime"
)

// TestConnTimeoutConfig: the migd connection timeout is configuration,
// not the historical hard-coded 5s. With a short ConnTimeout and no
// retries, a migration to an unreachable destination must fail at
// approximately that timeout.
func TestConnTimeoutConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ConnTimeout = 400 * 1e6
	cfg.ConnRetries = 0
	e := newEnv(t, 2, 1, cfg)
	start := e.c.Sched.Now()
	var doneAt simtime.Time
	done := false
	var gotErr error
	e.migrators[0].Migrate(e.p, proc.LocalNet+99, func(m *Metrics, err error) {
		done, gotErr = true, err
		doneAt = e.c.Sched.Now()
	})
	e.c.Sched.RunFor(10 * time.Second)
	if !done || gotErr == nil {
		t.Fatalf("migration to unreachable node did not fail: done=%v err=%v", done, gotErr)
	}
	elapsed := doneAt - start
	if elapsed < 400*1e6 || elapsed > 700*1e6 {
		t.Fatalf("failure at %v after start, want ≈ConnTimeout (400ms)", elapsed)
	}
	if e.p.State != proc.ProcRunning {
		t.Fatalf("process state after conn failure = %v", e.p.State)
	}
}

// TestConnRetryBackoff: with ConnRetries > 0 the engine re-dials with
// exponential backoff before giving up, and the retry count lands in the
// metrics. Three attempts of 500ms separated by 100ms and 200ms backoffs
// put the failure near 1.8s.
func TestConnRetryBackoff(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ConnTimeout = 500 * 1e6
	cfg.ConnRetries = 2
	cfg.RetryBackoff = 100 * 1e6
	cfg.RetryBackoffMax = 400 * 1e6
	e := newEnv(t, 2, 1, cfg)
	start := e.c.Sched.Now()
	var doneAt simtime.Time
	done := false
	var gotErr error
	var m *Metrics
	e.migrators[0].Migrate(e.p, proc.LocalNet+99, func(mm *Metrics, err error) {
		done, gotErr, m = true, err, mm
		doneAt = e.c.Sched.Now()
	})
	e.c.Sched.RunFor(15 * time.Second)
	if !done || gotErr == nil {
		t.Fatalf("did not fail: done=%v err=%v", done, gotErr)
	}
	if m == nil || m.Retries != 2 {
		t.Fatalf("Retries = %v, want 2", m)
	}
	if !m.Aborted {
		t.Fatal("metrics not flagged aborted")
	}
	elapsed := doneAt - start
	// 3 × 500ms attempts + 100ms + 200ms backoffs = 1800ms.
	if elapsed < 1700*1e6 || elapsed > 2300*1e6 {
		t.Fatalf("failure at %v, want ≈1.8s (timeouts plus backoffs)", elapsed)
	}
	// The process never froze: still serving from the source, and a
	// follow-up migration to a real node succeeds.
	if e.p.State != proc.ProcRunning {
		t.Fatalf("process state = %v", e.p.State)
	}
	mm := e.migrate(t, 1)
	if mm.FreezeTime <= 0 {
		t.Fatal("follow-up migration broken after retries")
	}
}

// TestAbandonedAttemptIsIgnored: once connFailed supersedes an attempt,
// its Conn still delivers to the same owner — the outbound — and only
// the dial generation it carries tells the owner to ignore it. At the
// instant the retry connects (state obAwaitAck), the superseded Conn
// delivers a MIGRATE_ACK, which would advance the migration, an ABORT
// and a hang-up, which would end it: none of them may do either, and the
// migration completes on the retry.
func TestAbandonedAttemptIsIgnored(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ConnRetries = 1
	e := newEnv(t, 2, 1, cfg)
	src := e.migrators[0]
	var m *Metrics
	var gotErr error
	done := false
	src.Migrate(e.p, e.c.Nodes[1].LocalIP, func(mm *Metrics, err error) { m, gotErr, done = mm, err, true })
	ob := src.active[e.p.PID]
	stale := ob.conn
	ob.connFailed(stale, errors.New("test: attempt timed out")) // what its conn-timeout does
	if ob.st != obConnecting || ob.dialGen == stale.gen {
		t.Fatalf("connFailed did not supersede the attempt: state %s, generation %d (attempt's %d)",
			obStateNames[ob.st], ob.dialGen, stale.gen)
	}
	injected := false
	src.OnPhase = func(ev PhaseEvent) {
		if ev.Phase != PhaseConnect || injected || ob.conn == stale {
			return
		}
		injected = true
		stale.feed(frameBytes(MsgMigrateAck, nil))
		if ob.st != obAwaitAck {
			t.Errorf("a MIGRATE_ACK on the superseded attempt moved the migration to %s", obStateNames[ob.st])
		}
		stale.feed(frameBytes(MsgAbort, []byte("stale")))
		stale.hangup()
		if ob.over() {
			t.Errorf("the superseded attempt ended the migration: %v", ob.metrics.AbortReason)
		}
	}
	e.c.Sched.RunFor(15 * time.Second)
	if !injected {
		t.Fatal("the retry never connected")
	}
	if !done || gotErr != nil || m.Retries != 1 {
		t.Fatalf("migration on the retry: done=%v err=%v retries=%v", done, gotErr, m)
	}
}

// TestRetryBackoffCap: the doubling backoff saturates at RetryBackoffMax.
// With 4 retries, 100ms base and a 200ms cap, the gaps are
// 100+200+200+200 = 700ms on top of 5 × 300ms attempts ⇒ ≈2.2s.
func TestRetryBackoffCap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ConnTimeout = 300 * 1e6
	cfg.ConnRetries = 4
	cfg.RetryBackoff = 100 * 1e6
	cfg.RetryBackoffMax = 200 * 1e6
	e := newEnv(t, 2, 1, cfg)
	start := e.c.Sched.Now()
	var doneAt simtime.Time
	done := false
	var m *Metrics
	e.migrators[0].Migrate(e.p, proc.LocalNet+99, func(mm *Metrics, err error) {
		done, m = true, mm
		doneAt = e.c.Sched.Now()
	})
	e.c.Sched.RunFor(15 * time.Second)
	if !done || m == nil {
		t.Fatal("did not finish")
	}
	if m.Retries != 4 {
		t.Fatalf("Retries = %d, want 4", m.Retries)
	}
	elapsed := doneAt - start
	if elapsed < 2100*1e6 || elapsed > 2800*1e6 {
		t.Fatalf("failure at %v, want ≈2.2s with capped backoff", elapsed)
	}
}
