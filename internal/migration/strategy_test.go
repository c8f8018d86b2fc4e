package migration

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"dvemig/internal/ckpt"
	"dvemig/internal/obs"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
)

func TestStrategyByName(t *testing.T) {
	for _, name := range StrategyNames() {
		st, err := StrategyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if st.Name() != name {
			t.Fatalf("StrategyByName(%q).Name() = %q", name, st.Name())
		}
		rt, err := strategyByMode(st.mode)
		if err != nil {
			t.Fatal(err)
		}
		if rt.Name() != name {
			t.Fatalf("mode round-trip broke: %q -> %q", name, rt.Name())
		}
	}
	if st, err := StrategyByName(""); err != nil || st.Name() != "precopy" {
		t.Fatalf("empty name should default to precopy, got %v, %v", st, err)
	}
	if _, err := StrategyByName("lazy"); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	if _, err := strategyByMode(77); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestPostcopyMigrationEndToEnd runs the full client-streaming scenario
// of TestLiveMigrationEndToEnd under the post-copy and hybrid
// strategies: the process must arrive, resume with holes, drain, and
// never lose or reorder a byte of any client stream.
func TestPostcopyMigrationEndToEnd(t *testing.T) {
	for _, mig := range []*Strategy{Postcopy(), Hybrid()} {
		t.Run(mig.Name(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Mig = mig
			e := newEnv(t, 3, 8, cfg)
			origPID := e.p.PID

			var sent [][]byte
			var tickers []*simtime.Ticker
			for i, cli := range e.clients {
				i, cli := i, cli
				sent = append(sent, nil)
				tk := simtime.NewTicker(e.c.Sched, 40*time.Millisecond, "cli", func() {
					msg := []byte(fmt.Sprintf("c%d.%d;", i, len(sent[i])))
					sent[i] = append(sent[i], msg...)
					cli.Send(msg)
				})
				tk.Start()
				tickers = append(tickers, tk)
			}
			e.c.Sched.RunFor(300 * time.Millisecond)

			m := e.migrate(t, 1)
			dst := e.c.Nodes[1]
			q := findProcess(dst, "zone_serv1")
			if q == nil {
				t.Fatal("process did not arrive on destination")
			}
			if q.PID != origPID {
				t.Fatalf("PID changed: %d -> %d", origPID, q.PID)
			}
			if findProcess(e.c.Nodes[0], "zone_serv1") != nil {
				t.Fatal("process still on source")
			}
			if m.Mig != mig.Name() {
				t.Fatalf("Metrics.Mig = %q, want %q", m.Mig, mig.Name())
			}
			// The drain happened: every hole filled, no page left absent.
			if n := q.AS.AbsentCount(); n != 0 {
				t.Fatalf("%d pages still absent after completion", n)
			}
			if q.Stalled {
				t.Fatal("process still stalled after drain")
			}
			// Pull accounting is exact: demand + prefetch = shipped, no
			// duplicates anywhere, and the degraded window is coherent.
			if m.PagesShipped == 0 {
				t.Fatal("no pages shipped post-resume")
			}
			if m.PagesDemand+m.PagesPrefetched != m.PagesShipped {
				t.Fatalf("pull accounting off: demand %d + prefetch %d != shipped %d",
					m.PagesDemand, m.PagesPrefetched, m.PagesShipped)
			}
			if m.PullDuplicates != 0 {
				t.Fatalf("PullDuplicates = %d, want 0", m.PullDuplicates)
			}
			if e.migrators[1].DupFills != 0 {
				t.Fatalf("destination rejected %d duplicate fills", e.migrators[1].DupFills)
			}
			if m.LastFillAt < m.ResumeAt {
				t.Fatalf("LastFillAt %v before ResumeAt %v", m.LastFillAt, m.ResumeAt)
			}
			if m.DegradedWindow <= 0 || m.TotalTime <= 0 {
				t.Fatalf("windows implausible: degraded %v total %v", m.DegradedWindow, m.TotalTime)
			}
			// Post-copy's raison d'être: the freeze window excludes memory
			// copying, so it stays short even with 256 pages resident.
			if m.FreezeTime <= 0 || m.FreezeTime > 200*time.Millisecond {
				t.Fatalf("freeze time implausible for %s: %v", mig.Name(), m.FreezeTime)
			}
			// The pull traffic was class-stamped: both NICs saw page-pull
			// bytes on the in-cluster link.
			if e.c.Nodes[0].LocalNIC.PullTxBytes == 0 || e.c.Nodes[1].LocalNIC.PullRxBytes == 0 {
				t.Fatalf("pull-class accounting missing: tx=%d rx=%d",
					e.c.Nodes[0].LocalNIC.PullTxBytes, e.c.Nodes[1].LocalNIC.PullRxBytes)
			}

			// Stream integrity across the degraded window.
			e.c.Sched.RunFor(2 * time.Second)
			for _, tk := range tickers {
				tk.Stop()
			}
			e.c.Sched.RunFor(time.Second)
			all := e.received.Bytes()
			for i := range e.clients {
				want := sent[i]
				got := extractClient(all, i)
				if !bytes.Equal(got, want) {
					t.Fatalf("client %d stream mismatch: got %d bytes, want %d",
						i, len(got), len(want))
				}
			}
			if !bytes.Contains(e.dbPeer.Recv(), []byte("ping;")) {
				t.Fatal("db connection dead after migration")
			}
		})
	}
}

// TestPostcopyShipsEveryPageExactlyOnce is the shadow-model property:
// the set of pages shipped after resume must equal the resident set at
// freeze time, each shipped exactly once, split consistently between
// demand and prefetch.
func TestPostcopyShipsEveryPageExactlyOnce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mig = Postcopy()
	e := newEnv(t, 2, 4, cfg)

	shipped := map[ckpt.PageCoord]int{}
	demand := 0
	e.migrators[0].OnPageShip = func(c ckpt.PageCoord, d bool) {
		shipped[c]++
		if d {
			demand++
		}
	}
	frozen := map[ckpt.PageCoord]bool{}
	e.migrators[0].OnPhase = func(ev PhaseEvent) {
		if ev.Phase == PhaseFreeze && ev.Node == e.c.Nodes[0].Name {
			// Synchronous with the freeze point: no tick can interleave, so
			// this is exactly the resident set the directory will describe.
			for _, v := range e.p.AS.VMAs() {
				v.Entries(func(pe proc.PTE) {
					frozen[ckpt.PageCoord{VMAStart: v.Start, Index: pe.Index}] = true
				})
			}
		}
	}
	m := e.migrate(t, 1)
	if len(frozen) == 0 {
		t.Fatal("freeze snapshot empty — hook never fired")
	}
	if len(shipped) != len(frozen) {
		t.Fatalf("shipped %d distinct pages, frozen resident set has %d", len(shipped), len(frozen))
	}
	for c, n := range shipped {
		if !frozen[c] {
			t.Fatalf("shipped page %#x+%d was not resident at freeze", c.VMAStart, c.Index)
		}
		if n != 1 {
			t.Fatalf("page %#x+%d shipped %d times", c.VMAStart, c.Index, n)
		}
	}
	if int(m.PagesShipped) != len(frozen) {
		t.Fatalf("PagesShipped = %d, want %d", m.PagesShipped, len(frozen))
	}
	if int(m.PagesDemand) != demand {
		t.Fatalf("PagesDemand = %d, hook saw %d", m.PagesDemand, demand)
	}
	if m.PullDuplicates != 0 || e.migrators[1].DupFills != 0 {
		t.Fatalf("duplicates: served=%d filled=%d, want 0/0", m.PullDuplicates, e.migrators[1].DupFills)
	}
}

// TestPullerCountsMalformedFillsApart: a PAGE_RESP page that is not one
// page long (decodePageResp bounds its length only by the frame) is
// refused by the memory layer and counted as a bad fill, not as a
// duplicate; its placeholder — here one over hybrid's stale first-round
// frame — stays, still faulting, for the honest page to fill.
func TestPullerCountsMalformedFillsApart(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InboundLease = 0 // no lease to renew: the puller runs without its inbound's connection
	e := newEnv(t, 2, 0, cfg)
	m := e.migrators[1]
	p := e.c.Nodes[1].Spawn("holey", 1)
	v := p.AS.Mmap(4*proc.PageSize, "rw-")
	if err := p.AS.Write(v.Start+proc.PageSize, []byte("first round")); err != nil {
		t.Fatal(err)
	}
	for idx := uint64(0); idx < 3; idx++ {
		if err := p.AS.MarkAbsent(v.Start, idx); err != nil {
			t.Fatal(err)
		}
	}
	pl := newPuller(&inbound{m: m, holes: 3}, p)
	at := func(idx uint64) ckpt.PageCoord { return ckpt.PageCoord{VMAStart: v.Start, Index: idx} }
	page := bytes.Repeat([]byte{0x5A}, proc.PageSize)
	pl.onResp(pageResp{Pages: []respPage{
		{Coord: at(0), Data: page},
		{Coord: at(1), Data: page[:proc.PageSize-1]},
		{Coord: at(1), Data: append(page[:proc.PageSize:proc.PageSize], 1)},
		{Coord: at(1), Data: nil},
		{Coord: at(0), Data: page},
	}})
	if m.BadFills != 3 || m.DupFills != 1 || pl.holes != 2 || p.AS.AbsentCount() != 2 {
		t.Fatalf("BadFills %d DupFills %d, %d holes, %d absent; want 3, 1, 2, 2", m.BadFills, m.DupFills, pl.holes, p.AS.AbsentCount())
	}
	if e, _ := v.Entry(1); !e.Absent || e.Frame != nil {
		t.Fatalf("the page whose fills were refused: %+v", e)
	}
	pl.onResp(pageResp{Pages: []respPage{{Coord: at(1), Data: page}}})
	if got, err := p.AS.Read(v.Start+proc.PageSize, proc.PageSize); err != nil || !bytes.Equal(got, page) {
		t.Fatalf("the honest page did not land over the stale frame: err %v", err)
	}
}

// TestHybridBytesNeverExceedPrecopy is the transfer-volume property:
// for the same seed-deterministic dirty-page schedule, hybrid's total
// page bytes (one bounded round + pulls for the residual) can never
// exceed pure pre-copy's (the same first round plus every later round
// and the freeze residue).
func TestHybridBytesNeverExceedPrecopy(t *testing.T) {
	for _, nClients := range []int{2, 8, 16} {
		t.Run(fmt.Sprintf("clients=%d", nClients), func(t *testing.T) {
			run := func(mig *Strategy) *Metrics {
				cfg := DefaultConfig()
				cfg.Mig = mig
				e := newEnv(t, 2, nClients, cfg)
				return e.migrate(t, 1)
			}
			pre := run(Precopy())
			hyb := run(Hybrid())
			if pre.MemPageBytes == 0 || hyb.MemPageBytes == 0 {
				t.Fatalf("page byte accounting missing: pre=%d hyb=%d",
					pre.MemPageBytes, hyb.MemPageBytes)
			}
			if hyb.MemPageBytes > pre.MemPageBytes {
				t.Fatalf("hybrid shipped more page bytes than precopy: %d > %d",
					hyb.MemPageBytes, pre.MemPageBytes)
			}
			if hyb.Rounds != 1 {
				t.Fatalf("hybrid ran %d pre-copy rounds, want exactly 1", hyb.Rounds)
			}
			if pre.Rounds <= 1 {
				t.Fatalf("precopy ran %d rounds; comparison degenerate", pre.Rounds)
			}
		})
	}
}

// TestPostcopyZeroResidentDrainsImmediately covers the degenerate
// directory: a process whose address space has no materialized pages
// resumes and drains in the same instant, with no pull traffic.
func TestPostcopyZeroResidentDrainsImmediately(t *testing.T) {
	c := proc.NewCluster(simtime.NewScheduler(), 2)
	cfg := DefaultConfig()
	cfg.Mig = Postcopy()
	var ms []*Migrator
	for _, n := range c.Nodes {
		m, err := NewMigrator(n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	p := c.Nodes[0].Spawn("empty_proc", 1)
	p.AS.Mmap(16*proc.PageSize, "rw-") // mapped but never touched
	var got *Metrics
	ms[0].Migrate(p, c.Nodes[1].LocalIP, func(m *Metrics, err error) {
		if err != nil {
			t.Errorf("migration failed: %v", err)
		}
		got = m
	})
	c.Sched.RunFor(5 * time.Second)
	if got == nil {
		t.Fatal("migration never completed")
	}
	if got.PagesShipped != 0 {
		t.Fatalf("shipped %d pages from an empty resident set", got.PagesShipped)
	}
	q := findProcess(c.Nodes[1], "empty_proc")
	if q == nil || q.AS.AbsentCount() != 0 {
		t.Fatal("process missing or hole-y on destination")
	}
}

// declaredPhases is the phase order a strategy row declares for a clean
// migration, on the source and on the destination: the shared handover
// (connect … freeze, transfer | restore, reinject … done) with the row's
// rounds in front of the freeze and, if it pulls, the pull phase behind
// the reinjection. A run of pre-copy rounds is one "precopy" entry and a
// run of demand pulls and prefetch batches one "pull" entry.
func declaredPhases(row *Strategy) (src, dst []string) {
	src = []string{"connect"}
	if row.rounds != roundsNone {
		src = append(src, "precopy")
	}
	src = append(src, "freeze", "transfer")
	dst = []string{"restore", "reinject"}
	if row.pulls {
		src = append(src, "resume", "pull")
		dst = append(dst, "drained")
	}
	return append(src, "done"), dst
}

// TestPhaseOrderFollowsTheRow records OnPhase on both nodes for a clean
// migration under every row of the strategy table and checks what fired,
// in order, against what the row declares — the table is the
// specification, not DESIGN.md's prose.
func TestPhaseOrderFollowsTheRow(t *testing.T) {
	for i := range strategies {
		row := &strategies[i]
		t.Run(row.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Mig = row
			e := newEnv(t, 2, 4, cfg)
			seen := map[string][]string{}
			rounds := 0
			for _, m := range e.migrators {
				m.OnPhase = func(ev PhaseEvent) {
					name := ev.Phase.String()
					switch ev.Phase {
					case PhasePrecopy:
						rounds++
					case PhasePull, PhasePrefetch:
						name = "pull"
					}
					if got := seen[ev.Node]; len(got) == 0 || got[len(got)-1] != name {
						seen[ev.Node] = append(got, name)
					}
				}
			}
			m := e.migrate(t, 1)
			wantSrc, wantDst := declaredPhases(row)
			if got := seen[e.c.Nodes[0].Name]; fmt.Sprint(got) != fmt.Sprint(wantSrc) {
				t.Errorf("source fired %v, the row declares %v", got, wantSrc)
			}
			if got := seen[e.c.Nodes[1].Name]; fmt.Sprint(got) != fmt.Sprint(wantDst) {
				t.Errorf("destination fired %v, the row declares %v", got, wantDst)
			}
			switch row.rounds {
			case roundsNone:
				if rounds != 0 {
					t.Errorf("%d rounds before the freeze, the row declares none", rounds)
				}
			case roundsOne:
				if rounds != 1 {
					t.Errorf("%d rounds before the freeze, the row declares one", rounds)
				}
			case roundsAll:
				if rounds < 2 {
					t.Errorf("%d rounds before the freeze, the row declares the whole loop", rounds)
				}
			}
			if m.Rounds != rounds {
				t.Errorf("Metrics.Rounds = %d, %d precopy phases fired", m.Rounds, rounds)
			}
		})
	}
}

// TestFourthStrategyIsOneTableLiteral is the table's acceptance test:
// stop-and-copy — no rounds, the freeze delta as final image — is one
// row literal, not code. Run through MigrateWith it must do exactly what
// the pre-copy row does with its rounds ablated (EnablePrecopy false) on
// the same seed: same bytes, same times, same restored heap.
func TestFourthStrategyIsOneTableLiteral(t *testing.T) {
	stopAndCopy := &Strategy{name: "stop-and-copy", mode: modePrecopy, rounds: roundsNone,
		final: chunkKindFreeze, committed: MsgRestoreDone}

	run := func(cfg Config, strat *Strategy) (*Metrics, uint64) {
		e := newEnv(t, 2, 8, cfg)
		heapStart := e.p.AS.VMAs()[0].Start
		var got *Metrics
		e.migrators[0].MigrateWith(e.p, e.c.Nodes[1].LocalIP, strat, obs.TraceContext{}, func(m *Metrics, err error) {
			if err != nil {
				t.Fatalf("%s: migration failed: %v", strat.name, err)
			}
			got = m
		})
		e.c.Sched.RunFor(10 * time.Second)
		q := findProcess(e.c.Nodes[1], "zone_serv1")
		if got == nil || q == nil {
			t.Fatalf("%s: migration completed: %v, process on the destination: %v", strat.name, got != nil, q != nil)
		}
		heap, err := q.AS.Read(heapStart, int(256*proc.PageSize))
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(heap)
		return got, h.Sum64()
	}
	ablated := DefaultConfig()
	ablated.EnablePrecopy = false
	want, wantHeap := run(ablated, Precopy())
	got, gotHeap := run(DefaultConfig(), stopAndCopy)

	if got.Mig != "stop-and-copy" || got.Rounds != 0 || got.PrecopyMemBytes != 0 || got.MemPageBytes == 0 {
		t.Fatalf("Mig %q, %d rounds, %d precopy bytes, %d page bytes; want stop-and-copy with everything in the freeze",
			got.Mig, got.Rounds, got.PrecopyMemBytes, got.MemPageBytes)
	}
	if got.Captured != got.Reinjected {
		t.Errorf("captured %d packets, reinjected %d", got.Captured, got.Reinjected)
	}
	// Everything but the name is the ablated pre-copy run's.
	g, w := *got, *want
	g.Mig = w.Mig
	if g != w {
		t.Errorf("metrics differ from pre-copy with EnablePrecopy=false:\n got %+v\nwant %+v", g, w)
	}
	if gotHeap != wantHeap {
		t.Errorf("restored heap FNV-64a = %#x, want %#x", gotHeap, wantHeap)
	}
}
