package eval

import (
	"encoding/binary"
	"hash/fnv"
	"strings"
	"sync/atomic"
	"testing"

	"dvemig/internal/simtime"
)

// counted wraps a scenario's Arm with a call counter a parallel sweep
// may bump from any worker.
func counted[E any](arm func(E), n *atomic.Int32) func(E) {
	return func(e E) {
		n.Add(1)
		arm(e)
	}
}

// TestChaosSweep runs the full default scenario battery at one seed and
// checks the headline claims: the process survives every scenario, the
// byte-stream invariant holds everywhere, healthy-path scenarios
// complete the migration, and the crash scenario aborts cleanly rather
// than hanging. No cell violates, so none is replayed: every scenario's
// Arm runs once per cell.
func TestChaosSweep(t *testing.T) {
	cfg := DefaultChaosConfig()
	cfg.Seeds = []uint64{1}
	arms := make([]atomic.Int32, len(cfg.Scenarios))
	for i := range cfg.Scenarios {
		cfg.Scenarios[i].Arm = counted(cfg.Scenarios[i].Arm, &arms[i])
	}
	rep, err := RunChaosSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != len(cfg.Scenarios) {
		t.Fatalf("got %d results, want %d", len(rep.Results), len(cfg.Scenarios))
	}
	for i, sc := range cfg.Scenarios {
		if n := arms[i].Load(); n != int32(len(cfg.Seeds)) {
			t.Errorf("%s: Arm ran %d times over %d cells", sc.Name, n, len(cfg.Seeds))
		}
	}
	for _, res := range rep.Results {
		if !res.Survived {
			t.Errorf("%s/seed%d: process did not survive", res.Scenario, res.Seed)
		}
		for _, v := range res.Violations {
			t.Errorf("%s/seed%d: invariant violation: %s", res.Scenario, res.Seed, v)
		}
		if len(res.Violations) > 0 && res.FlightDump != "" {
			t.Logf("%s/seed%d flight recorder:\n%s", res.Scenario, res.Seed, res.FlightDump)
		}
		if !res.Completed && !res.Aborted {
			t.Errorf("%s/seed%d: migration neither completed nor aborted (hang)", res.Scenario, res.Seed)
		}
		if res.PendingAfterDrain != 0 {
			t.Errorf("%s/seed%d: %d events still pending after drain (leaked timer)",
				res.Scenario, res.Seed, res.PendingAfterDrain)
		}
		switch res.Scenario {
		case "crash-freeze":
			if !res.Aborted {
				t.Errorf("%s: expected abort, got completion", res.Scenario)
			}
		case "healthy", "dup", "reorder", "jitter":
			if !res.Completed {
				t.Errorf("%s: expected completion, got abort: %s", res.Scenario, res.AbortReason)
			}
		}
	}
	t.Logf("\n%s", rep.Table())
}

// TestChaosScenarioDeterminism runs one chaotic cell twice with the
// same seed and demands bit-identical outcomes, including the packet
// trace hash of the clients' access link.
func TestChaosScenarioDeterminism(t *testing.T) {
	cfg := DefaultChaosConfig()
	var sc ChaosScenario
	for _, s := range cfg.Scenarios {
		if s.Name == "loss-burst" {
			sc = s
		}
	}
	if sc.Name == "" {
		t.Fatal("loss-burst scenario missing")
	}
	a, err := cfg.runCell(sc, 77, false)
	if err != nil {
		t.Fatal(err)
	}
	// Re-arm: scenarios carry no state, but build a fresh copy of the
	// scenario list to be explicit about it.
	for _, s := range DefaultChaosScenarios() {
		if s.Name == "loss-burst" {
			sc = s
		}
	}
	b, err := cfg.runCell(sc, 77, false)
	if err != nil {
		t.Fatal(err)
	}
	if a.TraceHash != b.TraceHash {
		t.Fatalf("trace hash differs across identical runs: %#x vs %#x", a.TraceHash, b.TraceHash)
	}
	if a.Completed != b.Completed || a.Aborted != b.Aborted ||
		a.ClientRetransmits != b.ClientRetransmits || len(a.Violations) != len(b.Violations) {
		t.Fatalf("outcome differs across identical runs: %+v vs %+v", a, b)
	}
}

// TestChaosSweepReplaysViolatingCell forks the zone server onto the
// destination before the migration, which the survival audit reports.
// The violating cell runs again lit: its Arm runs twice, and its
// FlightDump comes from the replay, the only run with a recorder. An
// Arm that forks only on its first call reads state outside the cell,
// so its replay is another run, and the sweep says so.
func TestChaosSweepReplaysViolatingCell(t *testing.T) {
	fork := func(e *ChaosEnv) { e.Dest.Spawn("zone_serv", 1) }
	var forks, onces atomic.Int32
	cfg := DefaultChaosConfig()
	cfg.Seeds = []uint64{1}
	cfg.Scenarios = []ChaosScenario{
		{Name: "fork", Arm: counted(fork, &forks)},
		{Name: "fork-once", Arm: func(e *ChaosEnv) {
			if onces.Add(1) == 1 {
				fork(e)
			}
		}},
	}
	rep, err := RunChaosSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if forks.Load() != 2 || onces.Load() != 2 {
		t.Fatalf("Arm ran %d and %d times, want 2 each: a violating cell replays once", forks.Load(), onces.Load())
	}
	fk, once := rep.Results[0], rep.Results[1]
	if len(fk.Violations) == 0 || strings.Contains(strings.Join(fk.Violations, "\n"), "replay diverged") {
		t.Fatalf("fork: violations %q, want the audit's and no divergence", fk.Violations)
	}
	if !strings.HasPrefix(fk.FlightDump, "flight sched: ") {
		t.Fatalf("fork: no flight dump from the replay:\n%.200s", fk.FlightDump)
	}
	if len(once.Violations) != 1 || !strings.HasPrefix(once.Violations[0], "replay diverged: ") {
		t.Fatalf("fork-once: violations %q, want one replay divergence", once.Violations)
	}
}

// TestFnvSnifferWordMatchesHashFnv pins the trace-hash fold to the
// standard FNV-1a of the word's eight little-endian bytes: the
// zero-byte shortcut must not move a single bit of any recorded hash.
func TestFnvSnifferWordMatchesHashFnv(t *testing.T) {
	words := []uint64{0, 1, 2, 1 << 56, ^uint64(0)}
	rng := simtime.NewRand(0x666e76)
	for i := 0; i < 10000; i++ {
		// Random words of every byte length, as the sniffer sees them.
		words = append(words, rng.Uint64()>>(8*uint(rng.Intn(8))))
	}
	s, ref := newFnvSniffer(), fnv.New64a()
	for _, w := range words {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], w)
		ref.Write(b[:])
		s.word(w)
		if s.h != ref.Sum64() {
			t.Fatalf("after word %#x: sniffer %#x, hash/fnv %#x", w, s.h, ref.Sum64())
		}
	}
}
