package eval

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"dvemig/internal/simtime"
)

// TestChaosSweep runs the full default scenario battery at one seed and
// checks the headline claims: the process survives every scenario, the
// byte-stream invariant holds everywhere, healthy-path scenarios
// complete the migration, and the crash scenario aborts cleanly rather
// than hanging.
func TestChaosSweep(t *testing.T) {
	cfg := DefaultChaosConfig()
	cfg.Seeds = []uint64{1}
	// Arm the flight recorder so an invariant violation comes with the
	// last-events window of every track for post-mortem.
	cfg.FlightDepth = 128
	rep, err := RunChaosSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != len(cfg.Scenarios) {
		t.Fatalf("got %d results, want %d", len(rep.Results), len(cfg.Scenarios))
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
	a, err := RunChaosScenario(cfg, sc, 77)
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
	b, err := RunChaosScenario(cfg, sc, 77)
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
