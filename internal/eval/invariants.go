package eval

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"dvemig/internal/ctlplane"
	"dvemig/internal/migration"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
)

// The invariant list. This file is the one place the harness states
// what the paper's transparency claim means for a cell — one owner, no
// lost or duplicated work, nothing left running behind — and every
// battery's audit calls it. Each invariant has two forms: what holds at
// any instant of a healthy run (checked mid-run, at every sample
// window) and what must additionally hold at quiescence (checked once
// the cell is drained).
//
//  1. Single owner (singleOwner). Any instant: a service runs on at
//     most one node — zero is legal inside a freeze window, two is a
//     fork. Quiescence: on exactly one.
//  2. Exactly-once engine accounting (exactlyOnce). Any instant: the
//     engines have settled no more migrations than the agents started.
//     Quiescence: every started migration is settled exactly once —
//     started = completed + aborted.
//  3. Objects (ctlplane.AuditLive / objectsTerminal). Any instant: no
//     split brain, no two in-flight objects for one service, none stuck
//     past its budget. Quiescence: every submitted object is still
//     known to a controller and terminal.
//  4. No leaked timer (noLeakedTimers). Quiescence only: after the
//     drain the scheduler's queue is empty; what is left is named.
//  5. Nothing left stashed (nothingStashed). Quiescence only: after the
//     drain the scheduler holds no stashed value, so every behaviour
//     token a migration or a guardian stashed was taken. Cells known to
//     break it are named in stashedExpected.
//  6. Nothing outstanding (nothingOutstanding). Cell end only: once
//     every socket released its queues (proc.Cluster.Retire), every
//     packet and payload the cell's stacks minted is back in its home
//     pool. A packet still out sits in flight, in a capture filter or in
//     a socket no table reaches. Checked at every draining battery's
//     cell end and at the freeze point; cells known to break it are
//     named in outstandingExpected.
//
// Every function returns its breaches as messages (none = it holds).
// The messages are stable across windows — no ages, no clocks — so a
// persisting breach can be deduplicated by text.

// singleOwner is invariant 1 for one service among nodes. home is the
// node running it (the last one, on a fork; nil if none).
func singleOwner(nodes []*proc.Node, name string, quiescent bool) (home *proc.Node, breach string) {
	running := 0
	for _, n := range nodes {
		for _, p := range n.Processes() {
			if p.Name == name && p.State == proc.ProcRunning {
				running++
				home = n
			}
		}
	}
	if running > 1 || quiescent && running != 1 {
		breach = fmt.Sprintf("single-owner broken: %s running on %d nodes", name, running)
	}
	return home, breach
}

// engineLedger sums invariant 2's two sides: migrations the agents
// handed to an engine, and migrations the engines completed or rolled
// back.
func engineLedger(agents []*ctlplane.Agent, migs []*migration.Migrator) (started uint64, completed, aborted int) {
	for _, a := range agents {
		started += a.Started
	}
	for _, m := range migs {
		completed += len(m.Completed)
		aborted += len(m.Aborted)
	}
	return
}

// exactlyOnce is invariant 2 over an engineLedger: never duplicated by
// a probe, a replay or a controller takeover, never lost.
func exactlyOnce(started uint64, completed, aborted int, quiescent bool) []string {
	settled := completed + aborted
	switch {
	case uint64(settled) > started && !quiescent:
		return []string{fmt.Sprintf("exactly-once broken: engine settled %d migrations but agents only started %d", settled, started)}
	case uint64(settled) != started && quiescent:
		return []string{fmt.Sprintf("exactly-once broken: agents started %d migrations, engine settled %d (%d completed + %d aborted)",
			started, settled, completed, aborted)}
	}
	return nil
}

// objectsTerminal is invariant 3's quiescent form over the submitted
// IDs: get finds an object on whichever controller still has it, names
// maps an ID to its service for the message.
func objectsTerminal(ids []uint64, get func(uint64) *ctlplane.Object, names map[uint64]string) []string {
	var v []string
	for _, id := range ids {
		switch obj := get(id); {
		case obj == nil:
			v = append(v, fmt.Sprintf("object #%d (%s) lost across controllers", id, names[id]))
		case !obj.Status.State.Terminal():
			v = append(v, fmt.Sprintf("object #%d (%s) not terminal: %s after %v",
				id, names[id], obj.Status.State, obj.Status.Cause))
		}
	}
	return v
}

// noLeakedTimers is invariant 4: an event still queued after the drain
// is a timer nobody fired or canceled — an orphaned retransmit loop, an
// unstopped ticker — and the message names each one.
func noLeakedTimers(sched *simtime.Scheduler) []string {
	if sched.Pending() == 0 {
		return nil
	}
	names := sched.PendingNames()
	sort.Strings(names)
	return []string{fmt.Sprintf("leaked timers: %d events pending after drain: %s",
		len(names), strings.Join(names, ", "))}
}

// nothingStashed is invariant 5: a value still stashed after the drain
// is a process's behaviour that no restore and no abort took.
func nothingStashed(sched *simtime.Scheduler) []string {
	if n := sched.Stashed(); n > 0 {
		return []string{fmt.Sprintf("%s %d after drain", stashedBreach, n)}
	}
	return nil
}

// stashedBreach opens invariant 5's message.
const stashedBreach = "stashed values left:"

// expectStashed applies invariant 5's expected failures to the drain
// verdicts of the cell named key.
func expectStashed(key string, found []string) []string {
	return expectBreach(stashedExpected, "stashedExpected", stashedBreach, "left nothing stashed", key, found)
}

// nothingOutstanding is invariant 6 over what proc.Cluster.Retire
// returned: packets and payloads still out of their home pools after
// every socket released its queues.
func nothingOutstanding(packets, payloads int) []string {
	if packets != 0 || payloads != 0 {
		return []string{fmt.Sprintf("%s %d packets, %d payloads after release", outstandingBreach, packets, payloads)}
	}
	return nil
}

// outstandingBreach opens invariant 6's message.
const outstandingBreach = "packets outstanding:"

// expectOutstanding applies invariant 6's expected failures to the cell
// end verdicts of the cell named key.
func expectOutstanding(key string, found []string) []string {
	return expectBreach(outstandingExpected, "outstandingExpected", outstandingBreach, "left nothing outstanding", key, found)
}

// expectBreach applies one invariant's expected-failure list to the
// verdicts of the cell named key: a listed cell's breach (the message
// opening with breach) is expected and dropped, and a listed cell that
// did not break the invariant (held, in the message) gains a violation
// asking for its entry to go, so the list only shrinks.
func expectBreach(list map[string]bool, listName, breach, held, key string, found []string) []string {
	if !list[key] {
		return found
	}
	for i, msg := range found {
		if strings.HasPrefix(msg, breach) {
			return slices.Delete(found, i, i+1)
		}
	}
	return append(found, fmt.Sprintf("%s is in %s but %s: delete its entry", key, listName, held))
}
