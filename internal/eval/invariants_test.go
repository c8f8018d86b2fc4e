package eval

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"dvemig/internal/ctlplane"
	"dvemig/internal/migration"
	"dvemig/internal/netstack"
	"dvemig/internal/obs"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
)

// stashedListed is a cell on invariant 5's expected-failure list,
// outstandingListed one on invariant 6's.
const (
	stashedListed     = "failover/flap/seed=1"
	outstandingListed = "failover/steady-crash/seed=1"
)

// TestInvariantList forges each breach of the invariant list on a bare
// two-node cell and pins the message; the rows that must hold (a legal
// freeze window, a ledger still in flight) pin the any-instant forms'
// slack. Removing a check from invariants.go fails its row.
func TestInvariantList(t *testing.T) {
	owners := func(n int, quiescent bool) func(*fixture) []string {
		return func(f *fixture) []string {
			for _, node := range f.cluster.Nodes[:n] {
				node.Spawn("svc", 1)
			}
			f.cluster.Nodes[1].Spawn("svc", 1).State = proc.ProcFrozen // a shadow never counts
			if _, breach := singleOwner(f.cluster.Nodes, "svc", quiescent); breach != "" {
				return []string{breach}
			}
			return nil
		}
	}
	ledger := func(started uint64, completed, aborted int, quiescent bool) func(*fixture) []string {
		return func(*fixture) []string {
			s, c, a := engineLedger(
				[]*ctlplane.Agent{{Started: started - 1}, {Started: 1}},
				[]*migration.Migrator{{Completed: make([]*migration.Metrics, completed)}, {Aborted: make([]*migration.Metrics, aborted)}})
			return exactlyOnce(s, c, a, quiescent)
		}
	}
	objects := func(f *fixture) []string {
		store := map[uint64]*ctlplane.Object{
			1: {Status: ctlplane.Status{State: ctlplane.Succeeded}},
			2: {Status: ctlplane.Status{State: ctlplane.Running, Cause: []string{"dispatched"}}},
		}
		return objectsTerminal([]uint64{1, 2, 3}, func(id uint64) *ctlplane.Object { return store[id] },
			map[uint64]string{1: "svc01", 2: "svc02", 3: "svc03"})
	}
	// datagram sends one UDP datagram from node 1 to a socket on an
	// external host, and delivers it when deliver is set: it is then
	// parked in that socket's queue, homed on node 1's stack, else still
	// on the wire.
	datagram := func(f *fixture, deliver bool) {
		host := f.cluster.NewExternalHost("ext")
		addr, err := host.SourceAddrFor(f.cluster.ClusterIP)
		if err != nil {
			panic(err)
		}
		rx := netstack.NewUDPSocket(host)
		if err := rx.Bind(addr, 9); err != nil {
			panic(err)
		}
		tx := netstack.NewUDPSocket(f.cluster.Nodes[0].Stack)
		tx.BindEphemeral(f.cluster.ClusterIP)
		if err := tx.SendTo(addr, 9, []byte("x")); err != nil {
			panic(err)
		}
		if deliver {
			f.sched.Run()
			if rx.QueueLen() != 1 {
				panic("the datagram was not delivered")
			}
		}
	}
	rows := []struct {
		name  string
		forge func(*fixture) []string
		want  []string
	}{
		{"two owners at any instant", owners(2, false), []string{"single-owner broken: svc running on 2 nodes"}},
		{"two owners at quiescence", owners(2, true), []string{"single-owner broken: svc running on 2 nodes"}},
		{"no owner at quiescence", owners(0, true), []string{"single-owner broken: svc running on 0 nodes"}},
		{"no owner mid-run is a freeze window", owners(0, false), nil},
		{"one owner", owners(1, true), nil},
		{"settled more than started", ledger(3, 2, 2, false),
			[]string{"exactly-once broken: engine settled 4 migrations but agents only started 3"}},
		{"started but unsettled mid-run is in flight", ledger(3, 1, 1, false), nil},
		{"started but unsettled at quiescence", ledger(3, 1, 1, true),
			[]string{"exactly-once broken: agents started 3 migrations, engine settled 2 (1 completed + 1 aborted)"}},
		{"ledger balanced", ledger(3, 2, 1, true), nil},
		{"a non-terminal and a lost object", objects, []string{
			"object #2 (svc02) not terminal: Running after [dispatched]",
			"object #3 (svc03) lost across controllers"}},
		{"an un-cancelled timer survives the drain", func(f *fixture) []string {
			simtime.NewTicker(f.sched, time.Minute, "forged.ticker", func() {}).Start()
			f.sched.After(time.Second, "forged.oneshot", func() {}) // fires during the drain: not a leak
			return f.drain()
		}, []string{"leaked timers: 1 events pending after drain: forged.ticker"}},
		{"a drained cell", func(f *fixture) []string {
			f.sched.After(time.Second, "forged.oneshot", func() {})
			return f.drain()
		}, nil},
		{"a value stashed and never taken", func(f *fixture) []string {
			f.sched.Take(f.sched.Stash("taken"))
			f.sched.Stash("kept")
			return f.drain()
		}, []string{"stashed values left: 1 after drain"}},
		{"an expected stash breach is dropped", func(f *fixture) []string {
			f.sched.Stash("kept")
			return expectStashed(stashedListed, append(f.drain(), "other"))
		}, []string{"other"}},
		{"an expected stash breach that is gone asks to shrink the list", func(f *fixture) []string {
			return expectStashed(stashedListed, f.drain())
		}, []string{stashedListed + " is in stashedExpected but left nothing stashed: delete its entry"}},
		{"an unlisted cell's stash breach stands", func(f *fixture) []string {
			f.sched.Stash("kept")
			return expectStashed("soak/healthy/seed=1/req=80", f.drain())
		}, []string{"stashed values left: 1 after drain"}},
		{"a packet still on the wire at the cell's end", func(f *fixture) []string {
			datagram(f, false)
			return f.retire("chaos/healthy/seed=1")
		}, []string{"packets outstanding: 1 packets, 1 payloads after release"}},
		{"a packet parked in another stack's socket queue goes home", func(f *fixture) []string {
			datagram(f, true)
			return f.retire("chaos/healthy/seed=1")
		}, nil},
		{"an expected outstanding breach is dropped", func(f *fixture) []string {
			datagram(f, false)
			return append(f.retire(outstandingListed), "other")
		}, []string{"other"}},
		{"an expected outstanding breach that is gone asks to shrink the list", func(f *fixture) []string {
			datagram(f, true)
			return f.retire(outstandingListed)
		}, []string{outstandingListed + " is in outstandingExpected but left nothing outstanding: delete its entry"}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if got := row.forge(newFixture(2, false, false, nil, "")); !reflect.DeepEqual(got, row.want) {
				t.Errorf("got  %q\nwant %q", got, row.want)
			}
		})
	}
}

// fakeResult is the smallest thing a Report can aggregate.
type fakeResult struct {
	id   int
	lit  bool
	cap  *obs.Capture
	hash uint64
	viol []string
}

func (r *fakeResult) capture() *obs.Capture        { return r.cap }
func (r *fakeResult) verdict() (uint64, *[]string) { return r.hash, &r.viol }

// TestSweepReport runs the grid runner over a fake cell: results come
// back axis-major, seed-minor at any worker count, a cell's error names
// the cell, unobserved cells are skipped by Captures, and merging no
// captures is nil, not an error. Only the violating cells (axis b) run
// twice, and the sweep keeps their lit replay; the replay of b/2 hashes
// differently, which the sweep reports as one more violation.
func TestSweepReport(t *testing.T) {
	axes, seeds := []string{"a", "b", "c"}, []uint64{1, 2}
	caps := map[int]*obs.Capture{
		11: {Label: "a/1", Snap: obs.NewRegistry().Snapshot()},
		32: {Label: "c/2", Snap: obs.NewRegistry().Snapshot()},
	}
	var runs atomic.Int32
	run := func(axis string, seed uint64, lit bool) (*fakeResult, error) {
		runs.Add(1)
		id := int(axis[0]-'a'+1)*10 + int(seed)
		res := &fakeResult{id: id, lit: lit, cap: caps[id]}
		if axis == "b" {
			res.viol = []string{"forged"}
		}
		if id == 22 && lit {
			res.hash = 1
		}
		return res, nil
	}
	key := func(a string, seed uint64) string { return fmt.Sprintf("fake/%s/seed=%d", a, seed) }
	for _, workers := range []int{1, 4} {
		runs.Store(0)
		rep, err := sweep(axes, seeds, workers, nil, key, run)
		if err != nil {
			t.Fatal(err)
		}
		var ids []int
		var lit []bool
		for _, res := range rep.Results {
			ids = append(ids, res.id)
			lit = append(lit, res.lit)
		}
		if want := []int{11, 12, 21, 22, 31, 32}; !reflect.DeepEqual(ids, want) {
			t.Fatalf("workers=%d: grid order %v, want %v", workers, ids, want)
		}
		if want := []bool{false, false, true, true, false, false}; runs.Load() != 8 || !reflect.DeepEqual(lit, want) {
			t.Fatalf("workers=%d: %d runs, kept lit %v; want 8 runs and the replays of b kept", workers, runs.Load(), lit)
		}
		if v := rep.Results[2].viol; !reflect.DeepEqual(v, []string{"forged"}) {
			t.Fatalf("b/1 replayed true, yet violations %q", v)
		}
		if v := rep.Results[3].viol; len(v) != 2 || v[1] != "replay diverged: trace hash 0x0 → 0x1, violations 1 → 1" {
			t.Fatalf("b/2 replay diverged, yet violations %q", v)
		}
		if got := rep.Captures(); len(got) != 2 || got[0].Label != "a/1" || got[1].Label != "c/2" {
			t.Fatalf("workers=%d: captures %v", workers, got)
		}
		if snap, err := rep.MergedSnapshot(); err != nil || snap == nil {
			t.Fatalf("merged snapshot: %v, %v", snap, err)
		}
		if n := rep.Violations(); n != 2 {
			t.Fatalf("cells with violations = %d, want 2", n)
		}
	}

	bare := Report[*fakeResult]{Results: []*fakeResult{{id: 1}}}
	if snap, err := bare.MergedSnapshot(); snap != nil || err != nil {
		t.Fatalf("merged snapshot of no captures = (%v, %v), want (nil, nil)", snap, err)
	}

	boom := errors.New("boom")
	_, err := sweep(axes, seeds, 1, nil, key,
		func(axis string, seed uint64, _ bool) (*fakeResult, error) {
			if axis == "b" && seed == 2 {
				return nil, boom
			}
			return &fakeResult{}, nil
		})
	if !errors.Is(err, boom) || err.Error() != "fake/b/seed=2: boom" {
		t.Fatalf("cell error = %v", err)
	}
}
