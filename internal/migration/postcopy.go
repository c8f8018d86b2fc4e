package migration

import (
	"errors"
	"fmt"

	"dvemig/internal/ckpt"
	"dvemig/internal/netsim"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
	"dvemig/internal/sockmig"
)

// --- source side: hybrid round, post-image, pull server --------------------

// hybridRound runs hybrid's single bounded pre-copy round: one full
// dump of the resident set while the process keeps running, one wait of
// the initial timeout, then straight to the freeze point. Pages dirtied
// during the wait become the post-copy residual.
func (ob *outbound) hybridRound() {
	ob.metrics.Rounds++
	ob.m.firePhase(&ob.pt, PhasePrecopy, ob.metrics.Rounds, ob.p.PID)
	if ob.failed || ob.finished {
		return
	}
	trackCost := ob.shipDeltaRound()
	ob.m.sched().After(ob.timeout+trackCost, "migd.hybrid", func() {
		if ob.failed || ob.finished {
			return
		}
		ob.freeze()
	})
}

// sendPostImage is the post-copy analogue of sendFreeze: instead of the
// final memory delta it ships the page directory — geometry plus a
// present/absent verdict per resident page. For pure post-copy (hybrid
// false) everything is absent; for hybrid a page is present iff its
// dirty bit is clear, i.e. the bounded round's copy on the destination
// is still authoritative.
func (ob *outbound) sendPostImage(sd *sockmig.SockDelta, hybrid bool) {
	var present func(v *proc.VMA, e proc.PTE) bool
	if hybrid {
		present = func(_ *proc.VMA, e proc.PTE) bool { return !e.Dirty }
	}
	dir := ckpt.BuildPageDir(ob.p.AS, present)
	ob.pullDir = dir
	ob.shipped = make(map[ckpt.PageCoord]bool, len(dir.Absent))
	ob.sendFinal(chunkKindPostImage, dir.Encode(), sd)
}

// postSourceMsg handles the pull-protocol messages on the source; false
// means the message type is not part of the post-copy protocol.
func (ob *outbound) postSourceMsg(t MsgType, payload []byte) bool {
	switch t {
	case MsgResumed:
		rd, err := decodeRestoreDone(payload)
		if err != nil {
			ob.fail(err)
			return true
		}
		ob.handleResumed(rd)
	case MsgPageReq:
		pr, err := decodePageReq(payload)
		if err != nil {
			ob.fail(err)
			return true
		}
		ob.servePull(pr)
	case MsgPullsDone:
		pd, err := decodePullsDone(payload)
		if err != nil {
			ob.fail(err)
			return true
		}
		ob.finishPost(pd)
	default:
		return false
	}
	return true
}

// handleResumed is the post-copy point of no return: the process runs
// on the destination from here on, so the source can never thaw its
// copy again. The safety nets (local capture filters, the translation
// rollback plan) are dropped, the control connection is reclassified as
// page-pull traffic, and the prefetch sweep starts.
func (ob *outbound) handleResumed(rd restoreDone) {
	ob.handedOver = true
	ob.resumeAt = rd.ResumeAt
	ob.metrics.ResumeAt = rd.ResumeAt
	ob.metrics.FreezeTime = rd.ResumeAt - ob.metrics.FreezeStart
	ob.metrics.Captured = rd.Captured
	ob.metrics.Reinjected = rd.Reinjected
	for _, f := range ob.localFilters {
		ob.m.Capture.Drop(f)
	}
	ob.localFilters = nil
	ob.rollback = nil
	ob.conn.Socket().Class = netsim.ClassPagePull
	ob.m.firePhase(&ob.pt, PhaseResume, 0, ob.p.PID)
	if ob.failed || ob.finished {
		return // a phase hook crashed this node or aborted
	}
	ob.renewPullWatch()
	ob.prefetchPump()
}

// renewPullWatch (re)arms the destination-silence watchdog that bounds
// the pull phase after handover: the deadline no longer applies (the
// migration cannot be aborted once the destination runs the process),
// so a destination that dies mid-pull would otherwise leave the frozen
// source shell around forever. Reuses the InboundLease bound — both are
// "how long may the peer stay silent mid-protocol".
func (ob *outbound) renewPullWatch() {
	d := ob.m.Config.InboundLease
	if d <= 0 {
		return
	}
	if ob.pullWatch != nil {
		ob.m.sched().Cancel(ob.pullWatch)
	}
	ob.pullWatch = ob.m.sched().AfterCall(d, "migd.pull-watch", pullWatchCall, ob, nil)
}

func pullWatchCall(a0, _ any) { a0.(*outbound).pullWatchExpired() }

func (ob *outbound) pullWatchExpired() {
	ob.pullWatch = nil
	if ob.finished || ob.failed {
		return
	}
	ob.fail(errors.New("migration: destination went silent after handover"))
}

// prefetchPump is the background sweep: every PrefetchInterval it
// pushes up to PrefetchBatch not-yet-shipped pages in canonical order,
// until everything has been shipped or the migration ends.
func (ob *outbound) prefetchPump() {
	interval := ob.m.Config.PrefetchInterval
	if interval <= 0 {
		return // sweep disabled: pure demand paging
	}
	ob.m.sched().After(interval, "migd.prefetch", func() {
		if ob.failed || ob.finished || !ob.m.Node.Alive {
			return
		}
		batch := ob.nextPrefetchBatch()
		if len(batch) == 0 {
			return // everything shipped; awaiting PULLS_DONE
		}
		ob.prefetchBatches++
		ob.shipPages(0, batch)
		if ob.failed || ob.finished {
			return
		}
		ob.m.firePhase(&ob.pt, PhasePrefetch, ob.prefetchBatches, ob.p.PID)
		if ob.failed || ob.finished {
			return
		}
		ob.prefetchPump()
	})
}

func (ob *outbound) nextPrefetchBatch() []ckpt.PageCoord {
	max := ob.m.Config.PrefetchBatch
	if max <= 0 {
		max = 8
	}
	var batch []ckpt.PageCoord
	for ob.shipCursor < len(ob.pullDir.Absent) && len(batch) < max {
		c := ob.pullDir.Absent[ob.shipCursor]
		ob.shipCursor++
		if ob.shipped[c] {
			continue // demand pull got there first
		}
		batch = append(batch, c)
	}
	return batch
}

// shipPages sends page content, skipping anything already shipped so
// every page crosses the wire exactly once (duplicates are counted, and
// the earlier shipment is ordered ahead of the — then empty — reply on
// the same TCP stream).
func (ob *outbound) shipPages(id uint32, coords []ckpt.PageCoord) {
	resp := pageResp{ID: id}
	for _, c := range coords {
		if ob.shipped[c] {
			ob.metrics.PullDuplicates++
			continue
		}
		data, ok := ckpt.ExtractPage(ob.p.AS, c)
		if !ok {
			ob.fail(fmt.Errorf("migration: pull of non-resident page %#x+%d", c.VMAStart, c.Index))
			return
		}
		ob.shipped[c] = true
		ob.metrics.PagesShipped++
		ob.metrics.MemPageBytes += uint64(len(data))
		if id != 0 {
			ob.metrics.PagesDemand++
		} else {
			ob.metrics.PagesPrefetched++
		}
		if ob.m.OnPageShip != nil {
			ob.m.OnPageShip(c, id != 0)
		}
		resp.Pages = append(resp.Pages, respPage{Coord: c, Data: data})
	}
	// The pages are lent by the frozen address space; encodeInto copies
	// them into the scratch and Send copies the scratch into the socket.
	ob.m.pageBuf = resp.encodeInto(ob.m.pageBuf)
	ob.send(MsgPageResp, ob.m.pageBuf)
}

// servePull answers one demand pull. Stale-epoch requests are fenced:
// if the service's epoch moved past the one the destination restored
// under, the puller's ownership was superseded (a failover promoted
// someone else) and feeding it pages would resurrect a fenced owner.
func (ob *outbound) servePull(pr pageReq) {
	if cur := ob.m.Epochs.Current(ob.p.Name); pr.Epoch != cur {
		ob.conn.Send(MsgAbort, []byte(fmt.Sprintf("stale epoch %d pull fenced (current %d)", pr.Epoch, cur)))
		ob.fail(fmt.Errorf("migration: fenced stale-epoch pull (epoch %d, current %d)", pr.Epoch, cur))
		return
	}
	ob.pullsServed++
	ob.shipPages(pr.ID, pr.Coords)
	if ob.failed || ob.finished {
		return
	}
	ob.m.firePhase(&ob.pt, PhasePull, ob.pullsServed, ob.p.PID)
}

// finishPost completes a post-copy migration on the source: the
// destination filled its last hole, so the frozen shell here can go.
func (ob *outbound) finishPost(pd pullsDone) {
	ob.finished = true
	delete(ob.m.active, ob.p.PID)
	if ob.pullWatch != nil {
		ob.m.sched().Cancel(ob.pullWatch)
		ob.pullWatch = nil
	}
	ob.metrics.LastFillAt = pd.LastFillAt
	ob.metrics.StallTime = simtime.Duration(pd.StallNs)
	ob.metrics.TotalTime = pd.LastFillAt - ob.metrics.Start
	ob.metrics.DegradedWindow = (ob.metrics.FreezeStart - ob.metrics.Start) +
		(pd.LastFillAt - ob.resumeAt)
	tcp, _ := ob.p.Sockets()
	for _, sk := range tcp {
		if ob.inCluster(sk.RemoteIP) {
			ob.m.Transd.Translator().RemoveFlow(netsim.ProtoTCP, sk.RemoteIP, sk.LocalPort, sk.RemotePort)
		}
	}
	ob.p.State = proc.ProcExited
	ob.m.Node.Detach(ob.p)
	ob.conn.Close()
	ob.m.Completed = append(ob.m.Completed, ob.metrics)
	if ob.m.Obs != nil {
		ob.m.obsm.freezeUs.Observe(float64(ob.metrics.FreezeTime) / 1e3)
		ob.m.obsm.downtimeUs.Observe(float64(ob.metrics.FreezeTime+ob.metrics.StallTime) / 1e3)
		ob.pt.root.SetInt("freeze_us", int64(ob.metrics.FreezeTime)/1e3)
		ob.pt.root.SetInt("degraded_us", int64(ob.metrics.DegradedWindow)/1e3)
		ob.pt.root.SetInt("pages_demand", int64(ob.metrics.PagesDemand))
		ob.pt.root.SetInt("pages_prefetched", int64(ob.metrics.PagesPrefetched))
		ob.observeFreezeAttr()
	}
	ob.m.firePhase(&ob.pt, PhaseDone, 0, ob.p.PID)
	if ob.done != nil {
		ob.done(ob.metrics, nil)
	}
}

// orphan is fail past the point of no return: the process lives (or
// died) on the destination, so the frozen source shell must never thaw.
// It is reaped, the behavior-registry entry dropped, and the migration
// reported aborted — recovery of a destination that died after resume
// is failover territory (epoch promotion), not rollback.
func (ob *outbound) orphan(err error) {
	ob.failed = true
	delete(ob.m.active, ob.p.PID)
	if ob.pullWatch != nil {
		ob.m.sched().Cancel(ob.pullWatch)
		ob.pullWatch = nil
	}
	takeBehavior(ob.token)
	for _, f := range ob.localFilters {
		ob.m.Capture.Drop(f)
	}
	ob.localFilters = nil
	ob.conn.Close()
	ob.p.State = proc.ProcExited
	ob.m.Node.Detach(ob.p)
	ob.metrics.Aborted = true
	ob.metrics.AbortReason = err.Error()
	ob.m.Aborted = append(ob.m.Aborted, ob.metrics)
	ob.m.firePhase(&ob.pt, PhaseAborted, 0, ob.p.PID)
	if ob.done != nil {
		ob.done(ob.metrics, err)
	}
}

// --- destination side: partial restore and the demand puller ---------------

// puller is the destination's demand-paging client: it turns absent-page
// faults into PAGE_REQ messages, stalls the process loop while a demand
// fault is outstanding, folds arriving content back in, and declares the
// drain once the last hole fills. While holes remain it holds a lease on
// the source's liveness — a destination can never serve with missing
// pages, so a silent source means the hole-y process must die.
type puller struct {
	ib      *inbound
	p       *proc.Process
	holes   int
	pending map[ckpt.PageCoord]bool

	nextID     uint32
	demand     uint32
	prefetched uint32
	stallStart simtime.Time
	stallNs    uint64
	lastFill   simtime.Time
	lease      *simtime.Event
	done       bool
}

func newPuller(ib *inbound, p *proc.Process) *puller {
	pl := &puller{ib: ib, p: p, holes: ib.holes, pending: make(map[ckpt.PageCoord]bool)}
	p.AS.OnMissing = pl.fault
	return pl
}

// fault is the AddressSpace.OnMissing hook: request the page and stall
// the process loop until every outstanding demand fault is satisfied.
func (pl *puller) fault(vmaStart, pageIndex uint64) {
	if pl.done {
		return
	}
	c := ckpt.PageCoord{VMAStart: vmaStart, Index: pageIndex}
	if pl.pending[c] {
		return // already requested
	}
	pl.pending[c] = true
	if !pl.p.Stalled {
		pl.p.Stalled = true
		pl.stallStart = pl.ib.m.sched().Now()
	}
	pl.nextID++
	pl.ib.conn.Send(MsgPageReq,
		pageReq{ID: pl.nextID, Epoch: pl.ib.req.Epoch, Coords: []ckpt.PageCoord{c}}.encode())
}

// resume announces the process is live with holes: downtime ends here.
func (pl *puller) resume(now simtime.Time, captured, reinjected uint32) {
	ib := pl.ib
	ib.conn.Send(MsgResumed,
		restoreDone{ResumeAt: now, Captured: captured, Reinjected: reinjected}.encode())
	ib.conn.Socket().Class = netsim.ClassPagePull
	pl.lastFill = now
	if pl.holes <= 0 {
		pl.drained(now)
		return
	}
	pl.renewLease()
}

// onResp folds arriving page content in. FillPage rejects a fill of a
// resident page, which is how a violated exactly-once guarantee
// surfaces (counted on the migrator, asserted by the property tests).
func (pl *puller) onResp(resp pageResp) {
	if pl.done {
		return
	}
	now := pl.ib.m.sched().Now()
	for _, pg := range resp.Pages {
		if err := pl.p.AS.FillPage(pg.Coord.VMAStart, pg.Coord.Index, pg.Data); err != nil {
			pl.ib.m.DupFills++
			continue
		}
		pl.holes--
		pl.lastFill = now
		delete(pl.pending, pg.Coord)
		if resp.ID != 0 {
			pl.demand++
		} else {
			pl.prefetched++
		}
	}
	if len(pl.pending) == 0 && pl.p.Stalled {
		pl.stallNs += uint64(now - pl.stallStart)
		pl.p.Stalled = false
	}
	if pl.holes <= 0 {
		pl.drained(now)
		return
	}
	pl.renewLease()
}

// drained: the last hole filled; the degraded window ends.
func (pl *puller) drained(now simtime.Time) {
	pl.done = true
	pl.p.AS.OnMissing = nil
	if pl.p.Stalled {
		pl.stallNs += uint64(now - pl.stallStart)
		pl.p.Stalled = false
	}
	if pl.lease != nil {
		pl.ib.m.sched().Cancel(pl.lease)
		pl.lease = nil
	}
	ib := pl.ib
	ib.m.firePhase(&ib.pt, PhaseDrained, 0, ib.req.PID)
	ib.conn.Send(MsgPullsDone, pullsDone{
		LastFillAt: pl.lastFill, Demand: pl.demand,
		Prefetched: pl.prefetched, StallNs: pl.stallNs,
	}.encode())
}

// renewLease (re)arms the source-silence bound of the pull phase.
func (pl *puller) renewLease() {
	d := pl.ib.m.Config.InboundLease
	if d <= 0 {
		return
	}
	if pl.lease != nil {
		pl.ib.m.sched().Cancel(pl.lease)
	}
	pl.lease = pl.ib.m.sched().AfterCall(d, "migd.pull-lease", pullLeaseCall, pl, nil)
}

func pullLeaseCall(a0, _ any) { a0.(*puller).leaseExpired() }

func (pl *puller) leaseExpired() {
	pl.lease = nil
	if pl.done {
		return
	}
	pl.ib.m.LeaseExpired++
	pl.destroy()
	pl.ib.cleanup()
	pl.ib.conn.Close()
}

// destroy dismantles a hole-y process whose source is gone: it can
// never serve again (any read may land on a page it does not have), so
// it is torn down fence-style — sockets unhash before they close, so
// no FIN or RST escapes a node that was never the legitimate owner of
// a complete process image.
func (pl *puller) destroy() {
	if pl.done {
		return
	}
	pl.done = true
	p := pl.p
	p.AS.OnMissing = nil
	p.Stalled = false
	if pl.lease != nil {
		pl.ib.m.sched().Cancel(pl.lease)
		pl.lease = nil
	}
	n := pl.ib.m.Node
	n.StopLoop(p)
	tcp, udp := p.Sockets()
	for _, sk := range tcp {
		if !sk.Unhashed() {
			sk.Unhash()
		}
		sk.Close()
	}
	for _, us := range udp {
		if !us.Unhashed() {
			us.Unhash()
		}
		us.Close()
	}
	p.State = proc.ProcExited
	n.Detach(p)
}
