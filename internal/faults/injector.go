package faults

import (
	"dvemig/internal/migration"
	"dvemig/internal/netsim"
	"dvemig/internal/obs"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
)

// Injector owns the fault programs of one simulation run. It hands out
// per-link RNG seeds derived from its master seed, the link name and
// the attachment order, so a scenario is fully determined by (script,
// master seed) and two NICs never share a random stream.
type Injector struct {
	Sched *simtime.Scheduler
	Seed  uint64

	// Obs, when set, gets every injected fault annotated as an instant
	// on the affected link's or node's track. Window annotations use
	// InstantAt with the window's own timestamps — the injector must
	// never schedule observability events, or it would renumber the
	// event sequence and break bit-identical trace hashes.
	Obs *obs.Obs

	nAttached uint64
}

// NewInjector creates an injector with a master seed.
func NewInjector(sched *simtime.Scheduler, seed uint64) *Injector {
	return &Injector{Sched: sched, Seed: seed}
}

// deriveSeed mixes the master seed with the link name and a counter
// (splitmix64-style finalizer).
func (in *Injector) deriveSeed(name string) uint64 {
	h := in.Seed ^ 0x9e3779b97f4a7c15
	for _, c := range name {
		h = (h ^ uint64(c)) * 0xff51afd7ed558ccd
	}
	in.nAttached++
	h ^= in.nAttached * 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Attach installs prog on the NIC, seeding its RNG if the program did
// not fix a seed itself. It returns prog for chaining.
func (in *Injector) Attach(nic *netsim.NIC, prog *Program) *Program {
	if prog.Seed == 0 {
		prog.Seed = in.deriveSeed(nic.Name)
	}
	nic.SetFault(prog)
	return prog
}

// ProgramOn returns the Program installed on the NIC, attaching a fresh
// empty one when the NIC has none (or a foreign FaultModel).
func (in *Injector) ProgramOn(nic *netsim.NIC) *Program {
	if pr, ok := nic.Fault().(*Program); ok && pr != nil {
		return pr
	}
	return in.Attach(nic, NewProgram(0))
}

// DownFor takes the link dead in both directions during [from, to):
// no packet leaves or reaches the NIC inside the window.
func (in *Injector) DownFor(nic *netsim.NIC, from, to simtime.Time) {
	pr := in.ProgramOn(nic)
	pr.Down = append(pr.Down, Window{From: from, To: to})
	if in.Obs != nil {
		in.Obs.Trace.InstantAt(from, nic.Name, "fault:link-down")
		in.Obs.Trace.InstantAt(to, nic.Name, "fault:link-up")
		in.Obs.Metrics.Counter("faults/link_down_windows_total").Inc()
	}
}

// CrashAt schedules a hard, permanent node crash at virtual time t.
func (in *Injector) CrashAt(c *proc.Cluster, n *proc.Node, t simtime.Time) {
	in.Sched.At(t, "faults.crash."+n.Name, func() {
		if n.Alive {
			n.Fail(c)
			if in.Obs != nil {
				in.Obs.Trace.Instant(n.Name, "fault:crash")
				in.Obs.Metrics.Counter("faults/crashes_total").Inc()
			}
		}
	})
}

// CrashAtPhase arms a crash trigger on a migration phase: when the
// watched migrator fires ph (for PhasePrecopy, optionally a specific
// round; round 0 matches any), the victim node dies on the spot. Watch
// the source migrator for Connect/Precopy/Freeze/Transfer and the
// destination migrator for Restore/Reinject. Any previously installed
// OnPhase hook keeps running.
func CrashAtPhase(c *proc.Cluster, watch *migration.Migrator, victim *proc.Node,
	ph migration.Phase, round int) {
	prev := watch.OnPhase
	watch.OnPhase = func(ev migration.PhaseEvent) {
		if prev != nil {
			prev(ev)
		}
		if ev.Phase == ph && (round == 0 || ev.Round == round) && victim.Alive {
			victim.Fail(c)
		}
	}
}
