package obs

import (
	"dvemig/internal/netsim"
	"dvemig/internal/netstack"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
)

// Harvesting scrapes the plain uint64 counters the lower layers already
// keep (NIC tx/rx/drop/dup, stack demux and retransmit stats, scheduler
// steps/cancels) into a Registry at capture time. The lower layers stay
// obs-free — no import cycle, no hot-path cost — and the registry gets a
// complete cross-layer snapshot with stable metric names.
//
// Harvests use Counter.Store (absolute copy of the layer's own
// monotonic total), never Add: harvesting is idempotent, so the
// periodic Sampler can re-scrape the cluster at every sample boundary
// and a final capture-time harvest never double-counts.

// HarvestScheduler records the event-loop totals.
func HarvestScheduler(r *Registry, sched *simtime.Scheduler) {
	if r == nil || sched == nil {
		return
	}
	r.Counter("simtime/events_fired_total").Store(sched.Steps())
	r.Counter("simtime/events_canceled_total").Store(sched.Cancels())
	r.Gauge("simtime/events_pending").Set(float64(sched.Pending()))
}

// HarvestNIC records one link's counters under link/<name>/…
func HarvestNIC(r *Registry, nic *netsim.NIC) {
	if r == nil || nic == nil {
		return
	}
	p := "link/" + nic.Name + "/"
	r.Counter(p + "tx_packets").Store(nic.TxPackets)
	r.Counter(p + "rx_packets").Store(nic.RxPackets)
	r.Counter(p + "tx_bytes").Store(nic.TxBytes)
	r.Counter(p + "rx_bytes").Store(nic.RxBytes)
	r.Counter(p + "fault_dropped").Store(nic.FaultDropped)
	r.Counter(p + "fault_duplicated").Store(nic.FaultDuplicated)
	r.Counter(p + "fault_delayed").Store(nic.FaultDelayed)
}

// HarvestStack records one node's stack counters under stack/<name>/…
func HarvestStack(r *Registry, st *netstack.Stack) {
	if r == nil || st == nil {
		return
	}
	p := "stack/" + st.Name + "/"
	s := &st.Stats
	r.Counter(p + "delivered").Store(s.Delivered)
	r.Counter(p + "no_socket_drops").Store(s.NoSocketDrops)
	r.Counter(p + "reinjected").Store(s.Reinjected)
	r.Counter(p + "checksum_errors").Store(s.ChecksumErrors)
	r.Counter(p + "tcp_retransmits").Store(s.Retransmits)
	r.Counter(p + "tcp_fast_retransmits").Store(s.FastRetransmits)
	r.Counter(p + "tcp_rto_resets").Store(s.RTOResets)
	r.Counter(p + "tcp_ts_fixups").Store(s.TSFixups)
}

// HarvestCluster walks the whole testbed: every node's NICs and stack,
// plus the shared scheduler. Idempotent — call it before Capture, or
// hang it on a Sampler's Harvest hook to re-scrape every window.
func HarvestCluster(r *Registry, c *proc.Cluster) {
	if r == nil || c == nil {
		return
	}
	HarvestScheduler(r, c.Sched)
	for _, n := range c.Nodes {
		HarvestNIC(r, n.PublicNIC)
		HarvestNIC(r, n.LocalNIC)
		HarvestStack(r, n.Stack)
	}
}
