package migration

import (
	"errors"
	"fmt"

	"dvemig/internal/netsim"
	"dvemig/internal/obs"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
	"dvemig/internal/wire"
)

// --- source side: the one way a migration ends -------------------------------

// end ends the migration at the source, once; a nil err is success
// (complete). It has two branches. The process is gone from this node —
// on success, and on a failure past the handover (obServing), where it
// runs (or died) remotely and must never thaw here: recovery of a
// destination that died after resume is failover territory (epoch
// promotion), not rollback — and its frozen shell is reaped. Or the
// source rolls back to a fully functional state and tells the
// destination, if it still lives, to discard its partial state. The rest
// is shared: close, file the metrics, fire the terminal phase, call done.
func (ob *outbound) end(err error) {
	if ob.over() {
		return
	}
	gone := err == nil || ob.st == obServing
	phase := PhaseDone
	ob.st = obDone
	if err != nil {
		phase, ob.st = PhaseAborted, obAborted
		takeBehavior(ob.m.sched(), ob.token) // on success the destination took it
	}
	delete(ob.m.active, ob.p.PID)
	ob.watch.stop(ob.m)
	// Nothing encodes or pumps once the migration is over (a stream still
	// yielding finds over() set before it looks at its payload), and
	// every socket delta went out by copy. A class-size scratch goes back
	// to the wire pool, a smaller one to the node's list.
	if !wire.Give(ob.encBuf) {
		ob.m.encBufs.put(ob.encBuf)
	}
	ob.encBuf = nil
	ob.sockTracker.Release()
	if !gone && ob.p.State == proc.ProcFrozen {
		ob.thaw()
	}
	// The local safety-net filters (and the packets they swallowed — the
	// destination processed its own broadcast copies) are no longer
	// needed, nor is the rollback plan.
	ob.dropSafetyNets()
	if gone {
		// Dismantle the process here and drop any local translation rules
		// that protected its (departed) in-cluster connections. The
		// original sockets never run again and the image carried their
		// queues by copy, so their packets go back to their homes now,
		// and its address space, which nothing reads again, hands its
		// page table and frames to the page reserve; a rollback (thaw)
		// keeps both.
		tcp, udp := ob.p.Sockets()
		for _, sk := range tcp {
			if ob.inCluster(sk.RemoteIP) {
				ob.m.Transd.Translator().RemoveFlow(netsim.ProtoTCP, sk.RemoteIP, sk.LocalPort, sk.RemotePort)
			}
			sk.ReleaseQueues()
		}
		for _, us := range udp {
			us.ReleaseQueues()
		}
		ob.p.AS.Retire()
		ob.p.State = proc.ProcExited
		ob.m.Node.Detach(ob.p)
	} else {
		ob.conn.Send(MsgAbort, nil)
	}
	ob.conn.Close()
	if err == nil {
		ob.m.Completed = append(ob.m.Completed, ob.metrics)
		if ob.m.Obs != nil {
			ob.observeCompleted()
		}
	} else {
		ob.metrics.Aborted = true
		ob.metrics.AbortReason = err.Error()
		ob.m.Aborted = append(ob.m.Aborted, ob.metrics)
	}
	ob.m.firePhase(&ob.pt, phase, 0, ob.p.PID)
	if ob.done != nil {
		ob.done(ob.metrics, err)
	}
}

// dropSafetyNets discards what only a rollback would use: the local
// capture filters with whatever they hold, and the translation undo list.
func (ob *outbound) dropSafetyNets() {
	for _, f := range ob.localFilters {
		ob.m.Capture.Drop(f)
	}
	ob.localFilters = nil
	ob.rollback = nil
}

// thaw is the rollback of a frozen process: it keeps running here.
// Sockets rehash, packets captured while they were disabled reinject
// locally, translation rules installed on in-cluster peers are undone
// and the real-time loop restarts. The order matters: rehash before
// reinject (so the demux finds the sockets again), reinject before the
// loop restarts (so the application observes a contiguous stream).
func (ob *outbound) thaw() {
	ob.p.State = proc.ProcRunning
	tcp, udp := ob.p.Sockets()
	for _, sk := range tcp {
		if sk.Unhashed() {
			_ = sk.Rehash()
			sk.RestartRetransTimer()
		}
	}
	for _, us := range udp {
		if us.Unhashed() {
			_ = us.Rehash()
		}
	}
	// Feed back everything the wire delivered while the sockets were
	// out of the hash tables (a filter already gone has nothing to give).
	for _, f := range ob.localFilters {
		ob.metrics.LocalReinjected += uint32(f.Captured)
		_, _ = ob.m.Capture.ReinjectAndDisable(f)
	}
	ob.localFilters = nil
	// Undo the translation rules: peers must stop rewriting this
	// process's flows toward the dead destination. Re-installing a
	// rule whose NewAddr equals the flow's real current home either
	// removes it (identity) or retargets it back (chained
	// migrations); replica rules shipped to the destination are
	// removed outright. Requests to a crashed destination simply
	// time out in the translation client.
	for _, op := range ob.rollback {
		ob.m.Xlat.Request(op.peer, op.add, op.rule, func(error) {})
	}
	if ob.p.LoopPeriod > 0 && ob.p.Tick != nil {
		ob.m.Node.StartLoop(ob.p, ob.p.LoopPeriod)
	}
}

// FreezeAttrComponents are the freeze-time attribution components, in
// rendering order: signal/capture coordination, the precopy'd pages'
// final copy plus destination restore, per-socket state serialization,
// and translation-rule installs (Fig 5b's breakdown axis).
var FreezeAttrComponents = [...]string{
	"coordination", "page_copy", "socket_serialize", "xlat",
}

// FreezeAttrMetric names the attribution histogram of one component at
// one connection count, e.g. mig/freeze_attr/conns=0064/xlat_us —
// shared by the recorder below and eval's attribution table.
func FreezeAttrMetric(conns int, component string) string {
	return fmt.Sprintf("mig/freeze_attr/conns=%04d/%s_us", conns, component)
}

// observeCompleted records a completed migration: freeze and downtime,
// the pull phase's accounting if there was one, and the freeze-time
// breakdown into histograms keyed by the migrated connection count.
// Only called on the enabled path, once per migration: the Sprintf'd
// metric names and registry lookups never touch the disabled hot path.
func (ob *outbound) observeCompleted() {
	ob.m.obsm.freezeUs.Observe(float64(ob.metrics.FreezeTime) / 1e3)
	ob.m.obsm.downtimeUs.Observe(float64(ob.metrics.FreezeTime+ob.metrics.StallTime) / 1e3)
	ob.pt.root.SetInt("freeze_us", int64(ob.metrics.FreezeTime)/1e3)
	if ob.strat.pulls {
		ob.pt.root.SetInt("degraded_us", int64(ob.metrics.DegradedWindow)/1e3)
		ob.pt.root.SetInt("pages_demand", int64(ob.metrics.PagesDemand))
		ob.pt.root.SetInt("pages_prefetched", int64(ob.metrics.PagesPrefetched))
	}
	conns := ob.metrics.TCPMigrated + ob.metrics.UDPMigrated
	page := ob.metrics.FreezeTime - ob.attrCoord - ob.attrXlat - ob.attrSer
	if page < 0 {
		page = 0
	}
	comps := [...]simtime.Duration{ob.attrCoord, page, ob.attrSer, ob.attrXlat}
	r := ob.m.Obs.M()
	for i, name := range FreezeAttrComponents {
		r.Histogram(FreezeAttrMetric(conns, name), obs.DurationBucketsUs).
			Observe(float64(comps[i]) / 1e3)
	}
	ob.pt.root.SetInt("attr_coordination_us", int64(ob.attrCoord/1e3))
	ob.pt.root.SetInt("attr_page_copy_us", int64(page/1e3))
	ob.pt.root.SetInt("attr_socket_serialize_us", int64(ob.attrSer/1e3))
	ob.pt.root.SetInt("attr_xlat_us", int64(ob.attrXlat/1e3))
}

// --- destination side: abort, hang up, clean up ------------------------------

// abort refuses the migration with a cause the source gets to read, and
// hangs up.
func (ib *inbound) abort(err error) {
	ib.conn.Send(MsgAbort, []byte(err.Error()))
	ib.hangUp()
}

// hangUp discards the inbound's state and closes the connection; what
// is still in flight behind the close is dropped unanswered (ibClosed).
func (ib *inbound) hangUp() {
	ib.cleanup()
	ib.st = ibClosed
	ib.conn.Close()
}

// cleanup discards every piece of inbound state: nothing half-restored
// survives. It is what the source's ABORT and its hanging up (closed)
// do; the connection itself stays as it is.
func (ib *inbound) cleanup() {
	if ib.puller != nil {
		// Mid-pull teardown (source abort, fence, corruption): a process
		// with holes can never serve — destroy() is a no-op once drained.
		ib.puller.destroy()
		ib.puller = nil
	}
	for _, f := range ib.filters {
		ib.m.Capture.Drop(f)
	}
	ib.filters = nil
	if ib.st != ibClosed {
		ib.st = ibIdle
	}
	ib.silence.stop(ib.m)
	ib.shadowAS = nil
	ib.store = nil
	ib.img = nil
	ib.pt.abandon()
}

// --- both sides: the peer-silence timer ---------------------------------------

// silenceTimer bounds how long the peer may stay silent mid-protocol
// (Config.InboundLease; zero disables): the destination holding
// half-restored state or a process with holes, the source holding a
// frozen shell after the handover. A crashed peer sends no FIN, so
// this is the only thing that reaps them. It is renewed on every frame
// the state accepts, hence armed through AfterCall: no closure per
// frame.
type silenceTimer struct{ ev *simtime.Event }

func (s *silenceTimer) renew(m *Migrator, label string, owner any) {
	d := m.Config.InboundLease
	if d <= 0 {
		return
	}
	s.stop(m)
	s.ev = m.sched().AfterCall(d, label, peerWentSilent, s, owner)
}

func (s *silenceTimer) stop(m *Migrator) {
	if s.ev != nil {
		m.sched().Cancel(s.ev)
		s.ev = nil
	}
}

func peerWentSilent(timer, owner any) {
	timer.(*silenceTimer).ev = nil // fired; the event pointer is dead
	switch o := owner.(type) {
	case *inbound:
		// Counted on the migrator; under a row that pulls this is a
		// hole-y process destroyed mid-pull (cleanup).
		o.m.LeaseExpired++
		o.hangUp()
	case *outbound:
		o.end(errors.New("migration: destination went silent after handover"))
	}
}
