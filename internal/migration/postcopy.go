package migration

import (
	"errors"
	"fmt"

	"dvemig/internal/ckpt"
	"dvemig/internal/netsim"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
)

// --- source side: handover and the pull server ------------------------------

// resumed handles the destination's report that the process runs there:
// RESTORE_DONE (complete — the resume instant is also the moment the
// last page arrived, so the migration is over) or RESUMED (with holes).
// RESUMED is the point of no return: the process runs on the
// destination from here on, so the source can never thaw its copy
// again. The safety nets (local capture filters, the translation
// rollback plan) are dropped, the control connection is reclassified as
// page-pull traffic, and the prefetch sweep starts.
func (ob *outbound) resumed(rd restoreDone) {
	ob.metrics.ResumeAt = rd.ResumeAt
	ob.metrics.FreezeTime = rd.ResumeAt - ob.metrics.FreezeStart
	ob.metrics.Captured = rd.Captured
	ob.metrics.Reinjected = rd.Reinjected
	if !ob.strat.pulls {
		ob.complete(rd.ResumeAt, 0)
		return
	}
	ob.st = obServing
	ob.dropSafetyNets()
	ob.conn.Socket().Class = netsim.ClassPagePull
	ob.m.firePhase(&ob.pt, PhaseResume, 0, ob.p.PID)
	if ob.over() {
		return // a phase hook crashed this node or aborted
	}
	// The deadline no longer applies (the migration cannot be aborted once
	// the destination runs the process), so a destination that dies
	// mid-pull would otherwise leave the frozen source shell around
	// forever: its silence is bounded instead.
	ob.watch.renew(ob.m, "migd.pull-watch", ob)
	ob.prefetchPump()
}

// complete ends a migration whose destination holds every page since
// lastFill, having stalled on demand faults for stall. The degraded
// window is the pre-freeze span (rounds competing with the application
// for the link) plus the span it ran with holes.
func (ob *outbound) complete(lastFill simtime.Time, stall simtime.Duration) {
	ob.metrics.LastFillAt = lastFill
	ob.metrics.StallTime = stall
	ob.metrics.TotalTime = lastFill - ob.metrics.Start
	ob.metrics.DegradedWindow = (ob.metrics.FreezeStart - ob.metrics.Start) +
		(lastFill - ob.metrics.ResumeAt)
	ob.end(nil)
}

// prefetchPump is the background sweep: every PrefetchInterval it
// pushes up to PrefetchBatch not-yet-shipped pages in canonical order,
// until everything has been shipped or the migration ends.
func (ob *outbound) prefetchPump() {
	interval := ob.m.Config.PrefetchInterval
	if interval <= 0 {
		return // sweep disabled: pure demand paging
	}
	ob.m.sched().AfterCall(interval, "migd.prefetch", prefetchCall, ob, nil)
}

// prefetchCall pushes one batch and re-arms the sweep.
func prefetchCall(a0, _ any) {
	ob := a0.(*outbound)
	if ob.over() || !ob.m.Node.Alive {
		return
	}
	batch := ob.nextPrefetchBatch()
	if len(batch) == 0 {
		return // everything shipped; awaiting PULLS_DONE
	}
	ob.prefetchBatches++
	ob.shipPages(0, batch)
	if ob.over() {
		return
	}
	ob.m.firePhase(&ob.pt, PhasePrefetch, ob.prefetchBatches, ob.p.PID)
	if ob.over() {
		return
	}
	ob.prefetchPump()
}

func (ob *outbound) nextPrefetchBatch() []ckpt.PageCoord {
	max := ob.m.Config.PrefetchBatch
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
			ob.end(fmt.Errorf("migration: pull of non-resident page %#x+%d", c.VMAStart, c.Index))
			return
		}
		ob.shipped[c] = true
		ob.metrics.PagesShipped++
		ob.metrics.MemPageBytes += proc.PageSize
		if id != 0 {
			ob.metrics.PagesDemand++
		} else {
			ob.metrics.PagesPrefetched++
		}
		if ob.m.OnPageShip != nil {
			ob.m.OnPageShip(c, id != 0)
		}
		resp.Pages = append(resp.Pages, respPage{Coord: c, Data: data, Len: proc.PageSize})
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
		ob.end(fmt.Errorf("migration: fenced stale-epoch pull (epoch %d, current %d)", pr.Epoch, cur))
		return
	}
	ob.pullsServed++
	ob.shipPages(pr.ID, pr.Coords)
	if ob.over() {
		return
	}
	ob.m.firePhase(&ob.pt, PhasePull, ob.pullsServed, ob.p.PID)
}

// --- destination side: partial restore and the demand puller ---------------

// puller is the destination's demand-paging client: it turns absent-page
// faults into PAGE_REQ messages, stalls the process loop while a demand
// fault is outstanding, folds arriving content back in, and declares the
// drain once the last hole fills. While holes remain the inbound's
// silence timer runs on the source's liveness — a destination can never
// serve with missing pages, so a silent source means the hole-y process
// must die.
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
	pl.ib.silence.renew(pl.ib.m, "migd.pull-lease", pl.ib)
}

// onResp folds arriving page content in. FillPage rejects a fill of a
// resident page, which is how a violated exactly-once guarantee
// surfaces, and a page that is not PageSize long, which no honest source
// sends (both counted on the migrator, asserted by the property tests).
func (pl *puller) onResp(resp pageResp) {
	if pl.done {
		return
	}
	now := pl.ib.m.sched().Now()
	for _, pg := range resp.Pages {
		if err := pl.p.AS.FillPage(pg.Coord.VMAStart, pg.Coord.Index, pg.Data); err != nil {
			if errors.Is(err, proc.ErrFillSize) {
				pl.ib.m.BadFills++
			} else {
				pl.ib.m.DupFills++
			}
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
	pl.ib.silence.renew(pl.ib.m, "migd.pull-lease", pl.ib)
}

// drained: the last hole filled; the degraded window ends.
func (pl *puller) drained(now simtime.Time) {
	pl.done = true
	pl.p.AS.OnMissing = nil
	if pl.p.Stalled {
		pl.stallNs += uint64(now - pl.stallStart)
		pl.p.Stalled = false
	}
	ib := pl.ib
	ib.silence.stop(ib.m)
	ib.m.firePhase(&ib.pt, PhaseDrained, 0, ib.req.PID)
	ib.conn.Send(MsgPullsDone, pullsDone{
		LastFillAt: pl.lastFill, Demand: pl.demand,
		Prefetched: pl.prefetched, StallNs: pl.stallNs,
	}.encode())
}

// destroy dismantles a hole-y process whose source is gone: it can
// never serve again (any read may land on a page it does not have), so
// it is torn down fence-style — no FIN or RST escapes a node that was
// never the legitimate owner of a complete process image.
func (pl *puller) destroy() {
	if pl.done {
		return
	}
	pl.done = true
	pl.p.AS.OnMissing = nil
	pl.p.Stalled = false
	pl.ib.m.reapSilently(pl.p)
}
