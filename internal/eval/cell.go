package eval

import (
	"strings"

	"dvemig/internal/flight"
	"dvemig/internal/migration"
	"dvemig/internal/netsim"
	"dvemig/internal/netstack"
	"dvemig/internal/obs"
	"dvemig/internal/proc"
	"dvemig/internal/simprof"
	"dvemig/internal/simtime"
)

// fixture is what every cell of every battery stands on: a private
// scheduler and cluster with the three optional planes attached —
// observability, flight recorder, wall-clock self-profile. The planes
// only record; none schedules an event, so a cell's simulation is the
// same with any of them on or off.
type fixture struct {
	sched   *simtime.Scheduler
	cluster *proc.Cluster
	obs     *obs.Obs    // nil unless observing
	flight  *flight.Set // nil unless lit
	skew    *simprof.SkewProf
	digest  *wireDigest // nil unless the battery hashes its wires
}

// newFixture builds a cluster of nodes machines and attaches the planes:
// obs, then, when lit, the flight tracks (Cluster.AttachFlight's order
// is in every flight dump), then the profiler's loop and skew collectors
// under profLabel.
func newFixture(nodes int, observe, lit bool, prof *simprof.Profiler, profLabel string) *fixture {
	sched := simtime.NewScheduler()
	f := &fixture{sched: sched, cluster: proc.NewCluster(sched, nodes)}
	if observe {
		f.obs = obs.New(sched)
	}
	if lit {
		f.flight = flight.NewSet()
		f.cluster.AttachFlight(f.flight)
	}
	if prof != nil {
		sched.Prof = prof.Loop(profLabel)
		f.skew = prof.Skew(profLabel)
	}
	return f
}

// migrator starts n's migration service wired to the cell's planes.
// Span and metric handles are minted in call order, so a battery calls
// this (and whatever it stacks on the migrator) node by node.
func (f *fixture) migrator(n *proc.Node, cfg migration.Config) (*migration.Migrator, error) {
	m, err := migration.NewMigrator(n, cfg)
	if err != nil {
		return nil, err
	}
	if f.obs != nil {
		m.SetObs(f.obs)
	}
	m.Prof = f.skew
	return m, nil
}

// drain hops from event to event until the queue is empty and returns
// the verdicts of the invariants checked on what is left: no leaked
// timer, nothing stashed. The battery
// has stopped every periodic activity it started; every other timer is
// either canceled eagerly (migration leases, translation retries) or
// self-limiting (TCP retransmission gives up after MaxConsecRetrans —
// with full backoff to MaxRTO that takes tens of simulated minutes,
// hence the horizon), so a healthy cell always reaches Pending()==0.
func (f *fixture) drain() []string {
	limit := f.sched.Now() + 3600*1e9
	for f.sched.Pending() > 0 {
		next, _ := f.sched.NextEventTime()
		if next > limit {
			break
		}
		f.sched.RunUntil(next)
	}
	return append(noLeakedTimers(f.sched), nothingStashed(f.sched)...)
}

// retire ends the cell (proc.Cluster.Retire): every socket releases its
// queued packets, every pool goes to the process-wide reserve, every
// process's page memory to the page reserve, and what
// is still out is judged by invariant 6, with the expected failure of
// the cell named key applied. No event of the cell runs afterwards.
func (f *fixture) retire(key string) []string {
	return expectOutstanding(key, nothingOutstanding(f.cluster.Retire()))
}

// capture harvests the cluster's layer counters and freezes the cell's
// observability artifacts under label (nil when unobserved).
func (f *fixture) capture(label string) *obs.Capture {
	obs.HarvestCluster(f.obs.M(), f.cluster)
	return f.obs.Capture(label)
}

// flightDump renders the flight recorder's retained window ("" for a
// dark cell).
func (f *fixture) flightDump() string {
	var b strings.Builder
	f.flight.Dump(&b)
	return b.String()
}

// hashWires puts every node's public and in-cluster NIC behind the
// cell's wire digest, in node order; externalHost adds each external
// host's access link. The freeze point reads no hash and pays for none.
func (f *fixture) hashWires() {
	f.digest = &wireDigest{h: fnvOffset}
	for _, n := range f.cluster.Nodes {
		f.digest.attach(n.PublicNIC)
		f.digest.attach(n.LocalNIC)
	}
}

// externalHost adds an external host and returns its stack and access
// link, behind the wire digest hashWires started.
func (f *fixture) externalHost(name string) (*netstack.Stack, *netsim.NIC) {
	st := f.cluster.NewExternalHost(name)
	nic := f.cluster.LastExternalNIC()
	f.digest.attach(nic)
	return st, nic
}

// wireDigest is a battery cell's TraceHash: one FNV-1a over every packet
// event (tx, rx, drop-fault, dup) on every NIC it is attached to, in
// scheduler order. The payload enters as its length and p.Checksum: a
// one-byte change moves it, a swap of two aligned 16-bit words does not.
type wireDigest struct{ h, nics uint64 } // nics: the next NIC's ordinal

// digestTap is the digest's tap on one NIC, the NIC's ordinal in hand.
type digestTap struct {
	*wireDigest
	nic uint64
}

func (d *wireDigest) attach(nic *netsim.NIC) {
	nic.AttachTap(&digestTap{d, d.nics})
	d.nics++
}

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

// fnvPrimePow[k] is fnvPrime^k: the whole FNV-1a step for k zero bytes,
// since folding a zero byte in is a bare multiply.
var fnvPrimePow = func() (t [9]uint64) {
	t[0] = 1
	for k := 1; k < len(t); k++ {
		t[k] = t[k-1] * fnvPrime
	}
	return t
}()

// word folds v's eight bytes in, little-endian — byte for byte the
// FNV-1a of them, but the zero bytes above v's last non-zero one (most
// of a port, flag or length word) cost one multiply between them.
func (d *wireDigest) word(v uint64) {
	h, left := d.h, 8
	for ; v != 0; v >>= 8 {
		h = (h ^ (v & 0xff)) * fnvPrime
		left--
	}
	d.h = h * fnvPrimePow[left]
}

func (t *digestTap) PacketEvent(at simtime.Time, ev netsim.TapEvent, p *netsim.Packet) {
	t.word(t.nic<<8 | uint64(ev))
	t.word(uint64(at))
	t.word(uint64(p.SrcIP)<<32 | uint64(p.DstIP))
	t.word(uint64(p.SrcPort)<<48 | uint64(p.DstPort)<<32 | uint64(p.Flags)<<16 | uint64(p.Proto))
	t.word(uint64(p.Seq)<<32 | uint64(p.Ack))
	t.word(uint64(len(p.Payload))<<16 | uint64(p.Checksum))
}
