package eval

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"

	"dvemig/internal/migration"
	"dvemig/internal/sockmig"
)

var update = flag.Bool("update", false, "recompute every line of testdata/fixedpoint.txt and rewrite it")

// fixedPointFile holds the fixed point: one line per battery cell, its
// key, its wire digest and the outcome counts that the simulation's
// answer is judged by, sorted by key. A behaviour change moves lines;
// `go test -run '^TestFixedPoint$' ./internal/eval -update` rewrites the
// file, and its diff is the change's effect on every cell.
const fixedPointFile = "testdata/fixedpoint.txt"

// TestFixedPoint recomputes a subset of the fixed point through the real
// sweeps, at one worker and at four, and fails on the first key whose
// line moved. Running every cell twice in one process also catches state
// that outlives a cell. The subset is every chaos and failover scenario
// at seed 1 (and chaos lossy-cluster once more lit: the flight recorder
// must not show), the c16/c32 freeze points, one 80-request lossy soak
// cell and the first two soak3 pool entries. The battery tests below
// recompute further committed cells the same way.
func TestFixedPoint(t *testing.T) {
	if *update {
		var b strings.Builder
		lines := fixedPoint(t, true, 0)
		for _, k := range sortedKeys(lines) {
			fmt.Fprintf(&b, "%s %s\n", k, lines[k])
		}
		if err := os.WriteFile(fixedPointFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	ccfg := DefaultChaosConfig()
	lit, err := ccfg.runCell(ccfg.Scenarios[5], 1, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		got := fixedPoint(t, false, workers)
		matchFixedPoint(t, got, fmt.Sprintf("workers=%d", workers))
		if k := chaosKey(lit.Scenario, lit.Seed); got[k] != chaosLine(lit) {
			t.Fatalf("%s lit: %s, dark %s", k, chaosLine(lit), got[k])
		}
	}
}

// TestTraceHashGoldens checks the committed file itself: its keys are
// exactly the cells of every battery, sorted, one line each, and every
// line carries a wire digest. An -update that lost or invented a cell
// fails here, as does a battery that grew without one. The healthy and
// lossy-cluster chaos digests must differ: the lossy cell's in-cluster
// drops are on the record.
func TestTraceHashGoldens(t *testing.T) {
	raw, err := os.ReadFile(fixedPointFile)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	lines := map[string]string{}
	for _, l := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		k, line, _ := strings.Cut(l, " ")
		if !strings.HasPrefix(line, "hash=0x") && !strings.HasPrefix(line, "freeze=") {
			t.Errorf("%s: line %q carries no digest", k, line)
		}
		keys = append(keys, k)
		lines[k] = line
	}
	if !slices.IsSorted(keys) || len(lines) != len(keys) {
		t.Fatalf("%s is not sorted one line per key (-update rewrites it)", fixedPointFile)
	}
	cells := fixedPointKeys()
	if !slices.Equal(keys, cells) {
		for _, k := range cells {
			if _, ok := lines[k]; !ok {
				t.Fatalf("%s has no line for cell %s (-update rewrites it)", fixedPointFile, k)
			}
		}
		t.Fatalf("%s has %d lines for %d battery cells (-update rewrites it)", fixedPointFile, len(keys), len(cells))
	}
	digest := func(k string) string { h, _, _ := strings.Cut(lines[k], " "); return h }
	if h := digest(chaosKey("healthy", 1)); h == digest(chaosKey("lossy-cluster", 1)) {
		t.Fatalf("chaos healthy and lossy-cluster share the wire digest %s", h)
	}
}

// TestChaosScenarioDeterminism runs one chaotic cell twice through the
// cell entry (not the sweep), the second time from a fresh scenario
// list, and holds both runs to the committed line.
func TestChaosScenarioDeterminism(t *testing.T) {
	cfg := DefaultChaosConfig()
	for range 2 {
		i := slices.IndexFunc(DefaultChaosScenarios(), func(sc ChaosScenario) bool { return sc.Name == "loss-burst" })
		if i < 0 {
			t.Fatal("loss-burst scenario missing")
		}
		r, err := cfg.runCell(DefaultChaosScenarios()[i], 2, false)
		if err != nil {
			t.Fatal(err)
		}
		matchFixedPoint(t, map[string]string{chaosKey(r.Scenario, r.Seed): chaosLine(r)}, "runCell")
	}
}

// TestFig5bPointDeterminism runs one Fig 5b measurement point twice
// through RunFreezePoint and holds both to the committed line, which
// folds every repeat's migration.Metrics into an FNV.
func TestFig5bPointDeterminism(t *testing.T) {
	for range 2 {
		pt, err := RunFreezePoint(DefaultFreezeConfig(sockmig.IncrementalCollective, 64))
		if err != nil {
			t.Fatal(err)
		}
		matchFixedPoint(t, map[string]string{freezeKey(pt.Conns, pt.Strategy, 0): freezeLine(pt)}, "RunFreezePoint")
	}
}

// TestChaosSweepParallelMatchesSerial recomputes the chaos battery's
// other seeds, 2 and 3, at one worker (the serial path) and at four.
func TestChaosSweepParallelMatchesSerial(t *testing.T) {
	cfg := DefaultChaosConfig()
	cfg.Seeds = []uint64{2, 3}
	for _, w := range []int{1, 4} {
		cfg.Workers = w
		matchFixedPoint(t, chaosLines(t, cfg), fmt.Sprintf("workers=%d", w))
	}
}

// TestFailoverSweepParallelMatchesSerial recomputes the failover
// battery at seed 2, at one worker and at four.
func TestFailoverSweepParallelMatchesSerial(t *testing.T) {
	for _, w := range []int{1, 4} {
		matchFixedPoint(t, failoverLines(t, []uint64{2}, w), fmt.Sprintf("workers=%d", w))
	}
}

// TestFreezeSweepParallelMatchesSerial recomputes the c64/c128 points of
// the Fig 5b/5c grid, at one worker and at four.
func TestFreezeSweepParallelMatchesSerial(t *testing.T) {
	for _, w := range []int{1, 4} {
		matchFixedPoint(t, freezeLines(t, []int{64, 128}, w), fmt.Sprintf("workers=%d", w))
	}
}

// TestSoakDeterministicAcrossWorkerCounts recomputes the 80-request soak
// battery at seed 2 at worker counts 1, 4 and 8: cells are fully private
// and scheduling inside a cell depends only on simulation state.
func TestSoakDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg := DefaultSoakConfig()
	cfg.Requests, cfg.Seeds = 80, []uint64{2}
	for _, w := range []int{1, 4, 8} {
		cfg.Workers = w
		matchFixedPoint(t, soakLines(t, cfg), fmt.Sprintf("workers=%d", w))
	}
}

// matchFixedPoint fails on the first key, in sorted order, whose
// recomputed line differs from the committed one.
func matchFixedPoint(t *testing.T, got map[string]string, how string) {
	t.Helper()
	want := readFixedPoint(t)
	for _, k := range sortedKeys(got) {
		if got[k] != want[k] {
			t.Fatalf("fixed point moved at %s (%s):\n got %s\nwant %s\n(a behaviour change: -update rewrites %s)",
				k, how, got[k], want[k], fixedPointFile)
		}
	}
}

// failoverSeeds are the failover battery's seeds the file covers.
var failoverSeeds = []uint64{1, 2}

// fixedPoint computes the lines of every cell in the file (all) or of
// TestFixedPoint's subset, keyed.
func fixedPoint(t *testing.T, all bool, workers int) map[string]string {
	chaos := DefaultChaosConfig()
	chaos.Workers = workers
	fseeds, conns := failoverSeeds, SweepConns
	if !all {
		chaos.Seeds, fseeds, conns = []uint64{1}, []uint64{1}, []int{16, 32}
	}
	lines := chaosLines(t, chaos)
	if all {
		race := DefaultStrategySweepConfig()
		race.Workers = workers
		rep, err := RunStrategySweep(race)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rep.Results {
			lines[raceKey(r.Strategy, r.Scenario, r.Seed)] = chaosLine(r)
		}
	}
	maps.Copy(lines, failoverLines(t, fseeds, workers))
	maps.Copy(lines, freezeLines(t, conns, workers))
	for _, cfg := range soakCells(all) {
		cfg.Workers = workers
		maps.Copy(lines, soakLines(t, cfg))
	}
	return lines
}

// fixedPointKeys lists the key of every cell the file covers, sorted,
// from the battery configurations alone.
func fixedPointKeys() []string {
	var keys []string
	chaos, race := DefaultChaosConfig(), DefaultStrategySweepConfig()
	for _, sc := range chaos.Scenarios {
		for _, seed := range chaos.Seeds {
			keys = append(keys, chaosKey(sc.Name, seed))
		}
		for _, seed := range race.Seeds {
			for _, st := range migration.StrategyNames() {
				keys = append(keys, raceKey(st, sc.Name, seed))
			}
		}
	}
	for _, sc := range DefaultFailoverScenarios() {
		for _, seed := range failoverSeeds {
			keys = append(keys, failoverKey(sc.Name, seed))
		}
	}
	for _, n := range SweepConns {
		for _, s := range SweepStrategies {
			keys = append(keys, freezeKey(n, s, DefaultFreezeConfig(0, 0).Seed))
		}
	}
	for _, cfg := range soakCells(true) {
		for _, sc := range cfg.Scenarios {
			for _, seed := range cfg.Seeds {
				keys = append(keys, cfg.key(sc.Name, seed))
			}
		}
	}
	slices.Sort(keys)
	return keys
}

func chaosLines(t *testing.T, cfg ChaosConfig) map[string]string {
	rep, err := RunChaosSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lines := map[string]string{}
	for _, r := range rep.Results {
		lines[chaosKey(r.Scenario, r.Seed)] = chaosLine(r)
	}
	return lines
}

func failoverLines(t *testing.T, seeds []uint64, workers int) map[string]string {
	rep, err := RunFailoverSweep(DefaultFailoverScenarios(), seeds, workers)
	if err != nil {
		t.Fatal(err)
	}
	lines := map[string]string{}
	for _, r := range rep.Results {
		lines[failoverKey(r.Scenario, r.Seed)] = fmt.Sprintf("hash=%#x activations=%d owner=%d replies=%d viol=%d",
			r.TraceHash, r.Activations, r.OwnerNode, r.RepliesTotal, len(r.Violations))
	}
	return lines
}

// freezeLines runs the Fig 5b/5c grid over conns at DefaultFreezeConfig.
func freezeLines(t *testing.T, conns []int, workers int) map[string]string {
	tmpl := DefaultFreezeConfig(0, 0)
	tmpl.Workers = workers
	pts, err := RunFreezeSweep(conns, SweepStrategies, tmpl)
	if err != nil {
		t.Fatal(err)
	}
	lines := map[string]string{}
	for _, pt := range pts {
		lines[freezeKey(pt.Conns, pt.Strategy, tmpl.Seed)] = freezeLine(pt)
	}
	return lines
}

func soakLines(t *testing.T, cfg SoakConfig) map[string]string {
	rep, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lines := map[string]string{}
	for _, r := range rep.Results {
		lines[cfg.key(r.Scenario, r.Seed)] = fmt.Sprintf("hash=%#x ok=%d fail=%d abort=%d retry=%d dispatch=%d resend=%d viol=%d pending=%d",
			r.TraceHash, r.Succeeded, r.Failed, r.Aborted, r.Retries, r.Dispatches, r.Resends, len(r.Violations), r.PendingAfterDrain)
	}
	return lines
}

func freezeKey(conns int, s sockmig.Strategy, seed uint64) string {
	return fmt.Sprintf("freeze/c%d/%s/seed=%d", conns, strings.ReplaceAll(s.String(), " ", "-"), seed)
}

// freezeLine folds every repeat's migration.Metrics into an FNV.
func freezeLine(pt *FreezePoint) string {
	h := fnv.New64a()
	for _, m := range pt.Runs {
		fmt.Fprintf(h, "%+v\n", *m)
	}
	return fmt.Sprintf("freeze=%d sockbytes=%d retrans=%d runs=%#x",
		pt.WorstFreeze, pt.WorstSockBytes, pt.ClientRetransmits, h.Sum64())
}

func chaosLine(r *ChaosResult) string {
	return fmt.Sprintf("hash=%#x survived=%t completed=%t aborted=%t retrans=%d viol=%d pending=%d",
		r.TraceHash, r.Survived, r.Completed, r.Aborted, r.ClientRetransmits, len(r.Violations), r.PendingAfterDrain)
}

// soakCells are the soak sweeps the file covers: the 80-request cells
// `make artifacts` runs (the default battery at seeds 1 and 2, and each
// strategy at seed 1 with a tenth of submissions cancelled), and the
// benchmark's soak3 pool — every input its workload can draw, under its
// three scenarios at the default 500 requests.
func soakCells(all bool) []SoakConfig {
	short := DefaultSoakConfig()
	short.Requests = 80
	pool := DefaultSoakConfig()
	pool.Scenarios = slices.DeleteFunc(pool.Scenarios, func(sc SoakScenario) bool {
		return sc.Name != "healthy" && sc.Name != "lossy" && sc.Name != "ctl-crash"
	})
	pool.Seeds = nil
	for k := range uint64(512) {
		pool.Seeds = append(pool.Seeds, hashSeed(k))
	}
	if !all {
		short.Scenarios, short.Seeds, pool.Seeds = short.Scenarios[1:2], []uint64{1}, pool.Seeds[:2]
		return []SoakConfig{short, pool}
	}
	cells := []SoakConfig{short, pool}
	for _, s := range []string{"precopy", "postcopy", "hybrid"} {
		c := short
		c.Seeds, c.Strategy, c.CancelFraction = []uint64{1}, s, 0.1
		cells = append(cells, c)
	}
	return cells
}

// hashSeed is splitmix64, copied from benchmark/workloads.go: the soak3
// workload's pool entry k simulates seed hashSeed(k), k < 512.
func hashSeed(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func readFixedPoint(t *testing.T) map[string]string {
	f, err := os.Open(fixedPointFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, line, _ := strings.Cut(sc.Text(), " ")
		lines[k] = line
	}
	return lines
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
