package migration

import (
	"fmt"

	"dvemig/internal/proc"
)

// Strategy is the memory-movement axis of a migration: how page content
// gets from the source to the destination relative to the freeze point.
// It is orthogonal to Config.Strategy, which picks the *socket*
// migration flavor (§III-C); any combination of the two axes is valid.
//
// Every strategy is the same stop-and-copy handover — freeze, collective
// socket transfer, capture/reinject, restore — and a Strategy is one row
// of the table below saying what differs around it: how many dirty-page
// rounds run before the freeze, which pages ride along in the final
// image, and whether the destination goes on to pull the rest. The
// engine has no per-strategy code; it reads the row. The fields are
// unexported: use Precopy/Postcopy/Hybrid (or StrategyByName).
type Strategy struct {
	name string
	// mode is the wire tag stamped into migrateReq.Mode; the destination
	// finds its row by it.
	mode byte
	// rounds says how many pre-copy rounds the source runs between
	// MIGRATE_ACK and the freeze; roundLabel is the scheduler label of a
	// round's wait (it is in flight dumps, so each row keeps its own).
	rounds     precopyRounds
	roundLabel string
	// final is the chunk kind of the final image: chunkKindFreeze carries
	// the last memory delta, chunkKindPostImage a page directory in which
	// a resident page is present (its copy on the destination is
	// authoritative) iff present says so; nil means every page is a hole.
	final   byte
	present func(*proc.VMA, proc.PTE) bool
	// committed is the frame the source has a place for once the final
	// image is fully queued (obAccepts' obCommitted row): RESTORE_DONE —
	// the process runs complete and the source dismantles — or RESUMED —
	// it runs with holes, and a pull phase follows on both nodes.
	committed MsgType
	pulls     bool
}

// precopyRounds is the pre-copy column of a strategy row.
type precopyRounds uint8

const (
	roundsNone precopyRounds = iota // freeze at once
	roundsOne                       // one full dump while the process runs, then freeze
	roundsAll                       // Fig 3: iterate with a halving timeout down to freezeThreshold
)

// strategies is the strategy table, in canonical order (the order the
// strategy race reports them in); the first row is the default.
//
//   - precopy  — iterate dirty-page rounds while the process runs, then
//     freeze and ship the residue (Fig 3; the engine's historical mode).
//   - postcopy — freeze immediately, ship a minimal image plus a page
//     directory, resume at the destination with every page a hole, and
//     fill the holes by demand pulls plus a background prefetch sweep.
//   - hybrid   — one bounded pre-copy round, then post-copy for the
//     pages dirtied during that round.
var strategies = [...]Strategy{
	{name: "precopy", mode: modePrecopy, rounds: roundsAll, roundLabel: "migd.precopy",
		final: chunkKindFreeze, committed: MsgRestoreDone},
	{name: "postcopy", mode: modePostcopy, rounds: roundsNone,
		final: chunkKindPostImage, committed: MsgResumed, pulls: true},
	{name: "hybrid", mode: modeHybrid, rounds: roundsOne, roundLabel: "migd.hybrid",
		final: chunkKindPostImage, present: cleanSinceRound, committed: MsgResumed, pulls: true},
}

// cleanSinceRound is hybrid's present predicate: the round's copy of a
// page is still authoritative iff its dirty bit is clear (the round
// cleared every bit, and pages materialized afterwards are born dirty).
// It is only sound after a round has run, which is why hybrid's round
// is not subject to Config.EnablePrecopy.
func cleanSinceRound(_ *proc.VMA, e proc.PTE) bool { return !e.Dirty }

// Name returns the strategy's name ("precopy", "postcopy", "hybrid").
func (s *Strategy) Name() string { return s.name }

// Precopy returns the iterative dirty-page pre-copy strategy (the
// default when Config.Mig is nil).
func Precopy() *Strategy { return &strategies[0] }

// Postcopy returns the freeze-first demand-paging strategy.
func Postcopy() *Strategy { return &strategies[1] }

// Hybrid returns one bounded pre-copy round followed by post-copy for
// the residual dirty set.
func Hybrid() *Strategy { return &strategies[2] }

// StrategyNames lists the migration strategies in canonical order.
func StrategyNames() []string {
	names := make([]string, len(strategies))
	for i := range strategies {
		names[i] = strategies[i].name
	}
	return names
}

// StrategyByName parses a -strategy flag value. The empty string means
// the default (precopy).
func StrategyByName(s string) (*Strategy, error) {
	for i := range strategies {
		if s == "" || strategies[i].name == s {
			return &strategies[i], nil
		}
	}
	return nil, fmt.Errorf("migration: unknown strategy %q (want precopy, postcopy or hybrid)", s)
}

// strategyByMode maps a migrateReq.Mode wire tag back to its row (the
// destination's dispatch).
func strategyByMode(b byte) (*Strategy, error) {
	for i := range strategies {
		if strategies[i].mode == b {
			return &strategies[i], nil
		}
	}
	return nil, fmt.Errorf("migration: unknown strategy mode %d", b)
}
