// Post-copy abort matrix: a crash in every phase of the post-copy
// protocol, on either side of the handover. Before the destination
// sends RESUMED the source must roll back and thaw exactly as in the
// pre-copy crash matrix; after it, the point of no return has passed
// and the only legal outcomes are orphan-reaping (destination died) or
// hole-y-process destruction (source died) — never two owners, never a
// resurrected copy. Lives in the external test package for the same
// import-cycle reason as faultinject_test.go.
package migration_test

import (
	"testing"
	"time"

	"dvemig/internal/faults"
	"dvemig/internal/migration"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
)

// TestPostcopyAbortMatrix covers the pre-handover cells for both
// post-copy and hybrid: the destination dies at freeze, at the
// minimal-transfer point, during restore, and during reinjection (the
// last instant before RESUMED). Every cell must abort within the
// deadline, thaw the source with all sockets rehashed, keep the byte
// streams intact, and reproduce bit-identically.
func TestPostcopyAbortMatrix(t *testing.T) {
	cases := []struct {
		name  string
		watch int // migrator index whose OnPhase fires the trigger
		phase migration.Phase
	}{
		{"freeze", 0, migration.PhaseFreeze},
		{"minimal-transfer", 0, migration.PhaseTransfer},
		{"restore", 1, migration.PhaseRestore},
		{"reinject", 1, migration.PhaseReinject},
	}
	for _, strat := range []*migration.Strategy{migration.Postcopy(), migration.Hybrid()} {
		for _, tc := range cases {
			strat, tc := strat, tc
			t.Run(strat.Name()+"/"+tc.name, func(t *testing.T) {
				run := func() (reason string, recvLen int) {
					cfg := migration.DefaultConfig()
					cfg.Mig = strat
					cfg.Deadline = 6 * 1e9
					cfg.ConnTimeout = 1 * 1e9
					e := newFaultEnv(t, 3, 4, 1, cfg)
					e.startStreams(40 * time.Millisecond)
					e.c.Sched.RunFor(300 * time.Millisecond)

					dest := e.c.Nodes[1]
					faults.CrashAtPhase(e.c, e.migs[tc.watch], dest, tc.phase, 0)

					start := e.c.Sched.Now()
					var doneAt simtime.Time
					done := false
					var mErr error
					var metrics *migration.Metrics
					e.migs[0].Migrate(e.p, dest.LocalIP, func(m *migration.Metrics, err error) {
						done, mErr, metrics = true, err, m
						doneAt = e.c.Sched.Now()
					})
					e.c.Sched.RunFor(20 * time.Second)
					if !done {
						t.Fatal("hang: migration neither completed nor aborted")
					}
					if mErr == nil {
						t.Fatal("destination died pre-handover but migration reported success")
					}
					if metrics == nil || !metrics.Aborted {
						t.Fatalf("metrics not flagged aborted: %+v", metrics)
					}
					if doneAt > start+simtime.Time(cfg.Deadline)+2*1e9 {
						t.Fatalf("abort too late: %v after start", doneAt-start)
					}
					if dest.Alive {
						t.Fatal("victim still alive; trigger never fired")
					}
					// Pre-handover: the source copy is still the owner and
					// must be running, with every socket rehashed.
					if e.p.State != proc.ProcRunning {
						t.Fatalf("source process state = %v after rollback", e.p.State)
					}
					if fenvFindProcess(e.c.Nodes[0], "zone_serv") == nil {
						t.Fatal("process missing from source")
					}
					if fenvFindProcess(dest, "zone_serv") != nil {
						t.Fatal("dead destination still holds the process")
					}
					if n := fenvCountRunning(e.c, "zone_serv"); n != 1 {
						t.Fatalf("%d running owners after rollback, want 1", n)
					}
					tcp, _ := e.p.Sockets()
					for _, sk := range tcp {
						if sk.Unhashed() {
							t.Fatal("socket left unhashed after thaw")
						}
					}
					e.c.Sched.RunFor(2 * time.Second)
					e.stopStreams()
					e.c.Sched.RunFor(8 * time.Second)
					e.audit(t, strat.Name()+"/"+tc.name)
					return mErr.Error(), e.received.Len()
				}
				r1, n1 := run()
				r2, n2 := run()
				if r1 != r2 || n1 != n2 {
					t.Fatalf("cell not reproducible: (%q,%d) vs (%q,%d)", r1, n1, r2, n2)
				}
			})
		}
	}
}

// TestPostcopyDestCrashAfterResume is the first post-handover cell: the
// destination dies the instant the source learns of the resume. The
// source must NOT thaw (the destination ran — and possibly externalized
// — state the frozen copy never saw); it reaps the shell once the pull
// watchdog expires, reports the migration aborted, and the cluster
// converges to zero owners with no resurrection ever.
func TestPostcopyDestCrashAfterResume(t *testing.T) {
	run := func() (reason string, owners int) {
		cfg := migration.DefaultConfig()
		cfg.Mig = migration.Postcopy()
		cfg.Deadline = 6 * 1e9
		cfg.InboundLease = 2 * 1e9
		e := newFaultEnv(t, 3, 4, 1, cfg)
		e.startStreams(40 * time.Millisecond)
		e.c.Sched.RunFor(300 * time.Millisecond)

		dest := e.c.Nodes[1]
		// PhaseResume fires on the source when RESUMED lands — the
		// handover is already committed when the victim drops.
		faults.CrashAtPhase(e.c, e.migs[0], dest, migration.PhaseResume, 0)

		done := false
		var mErr error
		var metrics *migration.Metrics
		e.migs[0].Migrate(e.p, dest.LocalIP, func(m *migration.Metrics, err error) {
			done, mErr, metrics = true, err, m
		})
		e.c.Sched.RunFor(20 * time.Second)
		if !done {
			t.Fatal("hang: source never reaped the orphaned shell")
		}
		if mErr == nil {
			t.Fatal("destination died post-handover but migration reported success")
		}
		if metrics == nil || !metrics.Aborted {
			t.Fatalf("metrics not flagged aborted: %+v", metrics)
		}
		if dest.Alive {
			t.Fatal("victim still alive; trigger never fired")
		}
		// Past the point of no return the frozen source shell must never
		// thaw: it is reaped, not resurrected.
		if e.p.State == proc.ProcRunning {
			t.Fatal("source resurrected a handed-over process")
		}
		if fenvFindProcess(e.c.Nodes[0], "zone_serv") != nil {
			t.Fatal("reaped shell still attached to source")
		}
		// No owner anywhere — recovering this service is failover
		// (epoch promotion) territory, not the migration engine's.
		n := fenvCountRunning(e.c, "zone_serv")
		if n != 0 {
			t.Fatalf("%d running owners after post-handover destination crash", n)
		}
		e.stopStreams()
		e.c.Sched.RunFor(5 * time.Second)
		if nn := fenvCountRunning(e.c, "zone_serv"); nn != 0 {
			t.Fatalf("owner resurrected later: %d running", nn)
		}
		return mErr.Error(), n
	}
	r1, o1 := run()
	r2, o2 := run()
	if r1 != r2 || o1 != o2 {
		t.Fatalf("cell not reproducible: (%q,%d) vs (%q,%d)", r1, o1, r2, o2)
	}
}

// TestPostcopySourceCrashDuringPulls is the mirror post-handover cell:
// the source dies mid-prefetch while the destination still has holes. A
// process that cannot fill its holes can never serve again, so the pull
// lease must expire and destroy it fence-style — zero owners, no
// half-complete image left hashed into any stack.
func TestPostcopySourceCrashDuringPulls(t *testing.T) {
	run := func() (leases uint64, owners int) {
		cfg := migration.DefaultConfig()
		cfg.Mig = migration.Postcopy()
		cfg.InboundLease = 2 * 1e9
		// Slow the sweep down so the crash is guaranteed to land while
		// holes remain.
		cfg.PrefetchInterval = 50 * 1e6
		cfg.PrefetchBatch = 4
		e := newFaultEnv(t, 3, 4, 1, cfg)
		e.startStreams(40 * time.Millisecond)
		e.c.Sched.RunFor(300 * time.Millisecond)

		src := e.c.Nodes[0]
		dest := e.c.Nodes[1]
		faults.CrashAtPhase(e.c, e.migs[0], src, migration.PhasePrefetch, 1)

		e.migs[0].Migrate(e.p, dest.LocalIP, func(m *migration.Metrics, err error) {
			// The source dies mid-pull; its callback firing is not part
			// of the contract.
		})
		// Long enough for the 2s lease plus teardown slack.
		e.c.Sched.RunFor(15 * time.Second)
		e.stopStreams()
		e.c.Sched.RunFor(2 * time.Second)

		if src.Alive {
			t.Fatal("victim still alive; trigger never fired")
		}
		if e.migs[1].LeaseExpired == 0 {
			t.Fatal("destination never expired the pull lease")
		}
		// The hole-y process is gone, not serving with missing pages.
		if fenvFindProcess(dest, "zone_serv") != nil {
			t.Fatal("destination kept a hole-y process after the source died")
		}
		n := fenvCountRunning(e.c, "zone_serv")
		if n != 0 {
			t.Fatalf("%d running owners after source crash mid-pull", n)
		}
		return e.migs[1].LeaseExpired, n
	}
	l1, o1 := run()
	l2, o2 := run()
	if l1 != l2 || o1 != o2 {
		t.Fatalf("cell not reproducible: (%d,%d) vs (%d,%d)", l1, o1, l2, o2)
	}
}

// TestPostcopyDeadlineRefusedAfterHandover: a deadline that fires while
// pulls are still draining must be REFUSED — the destination is running
// the process, so aborting would strand the only owner. The migration
// completes normally, strictly later than the deadline it outlived.
func TestPostcopyDeadlineRefusedAfterHandover(t *testing.T) {
	cfg := migration.DefaultConfig()
	cfg.Mig = migration.Postcopy()
	// Handover happens within a few ms; the sweep over the ~40 resident
	// pages (8 per 20ms batch) needs ~100ms, so a 60ms deadline lands
	// mid-pull.
	cfg.Deadline = 60 * 1e6
	cfg.PrefetchInterval = 20 * 1e6
	e := newFaultEnv(t, 3, 4, 1, cfg)
	e.startStreams(40 * time.Millisecond)
	e.c.Sched.RunFor(300 * time.Millisecond)

	start := e.c.Sched.Now()
	var doneAt simtime.Time
	done := false
	var mErr error
	var metrics *migration.Metrics
	e.migs[0].Migrate(e.p, e.c.Nodes[1].LocalIP, func(m *migration.Metrics, err error) {
		done, mErr, metrics = true, err, m
		doneAt = e.c.Sched.Now()
	})
	e.c.Sched.RunFor(20 * time.Second)
	if !done {
		t.Fatal("migration hung")
	}
	if mErr != nil {
		t.Fatalf("deadline aborted a handed-over migration: %v", mErr)
	}
	if doneAt <= start+simtime.Time(cfg.Deadline) {
		t.Fatalf("migration finished at %v, before the %v deadline — cell never exercised the refusal",
			doneAt-start, cfg.Deadline)
	}
	if metrics.PagesShipped == 0 || metrics.LastFillAt < metrics.ResumeAt {
		t.Fatalf("pull accounting implausible: %+v", metrics)
	}
	q := fenvFindProcess(e.c.Nodes[1], "zone_serv")
	if q == nil || q.AS.AbsentCount() != 0 {
		t.Fatal("process missing or hole-y on destination after drain")
	}
	e.c.Sched.RunFor(2 * time.Second)
	e.stopStreams()
	e.c.Sched.RunFor(8 * time.Second)
	e.audit(t, "deadline-refused")
}
