package migration

import (
	"fmt"

	"dvemig/internal/capture"
	"dvemig/internal/ckpt"
	"dvemig/internal/netsim"
	"dvemig/internal/obs"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
	"dvemig/internal/sockmig"
)

// --- destination side: request, transfer, restore, reinject ----------------

type inbound struct {
	m    *Migrator
	conn *Conn
	req  migrateReq

	shadowAS *proc.AddressSpace
	store    *sockmig.Store
	filters  []*capture.Filter
	// img is the decoded final image, held across the restore window.
	img *ckpt.Image

	// st is where the inbound stands (states.go). strat is the row the
	// request's mode names: what kind of final image to expect and
	// whether a puller drives a demand-paging phase after resume. holes is
	// the absent-page count the directory declared.
	st     ibState
	strat  *Strategy
	holes  int
	puller *puller

	// Chunk-stream reassembly (chunkpipe.go): the open stream's identity,
	// the next expected sequence number, and the accumulation buffer
	// (reused across precopy rounds' streams).
	chunkOpen   bool
	chunkKind   byte
	chunkStream uint32
	chunkNext   uint32
	chunkBuf    []byte

	// silence discards the half-restored state if the source goes silent
	// (a crashed source sends no FIN, so the connection never hangs up).
	// Renewed on every message of the transfer; disarmed once the full
	// final image has arrived — from that point the restore completes
	// whether the source lives or not, and the source being dead just
	// means one owner, here — and armed again while a resumed process has
	// holes.
	silence silenceTimer

	// pt is the migration's phase clock and span cursor.
	pt phaseTrack
}

// frame is the destination's half of the protocol (see outbound.frame).
func (ib *inbound) frame(_ *Conn, t MsgType, payload []byte) {
	st := ib.st
	if st == ibClosed {
		// In flight behind our close (the rest of a chunk stream, prefetch
		// pushes): nobody left to answer to, nothing left to change.
		return
	}
	if !accepts(ibAccepts[st], t) {
		ib.abort(&protocolError{t: t, state: ibStateNames[st]})
		return
	}
	// Only a frame the state accepts counts as hearing from the source:
	// noise cannot hold half-restored state past the lease.
	if st == ibTransfer {
		ib.silence.renew(ib.m, "migd.lease", ib)
	}
	var err error
	switch t {
	case MsgMigrateReq:
		var req migrateReq
		if req, err = decodeMigrateReq(payload); err != nil {
			break
		}
		// Fencing: a request stamped below the service's epoch watermark
		// comes from a node whose ownership a failover superseded.
		if req.Name != "" && !ib.m.Epochs.Observe(req.Name, req.Epoch) {
			err = fmt.Errorf("migration: stale epoch %d for %q (watermark %d)",
				req.Epoch, req.Name, ib.m.Epochs.Current(req.Name))
			break
		}
		if ib.strat, err = strategyByMode(req.Mode); err != nil {
			break
		}
		ib.req = req
		ib.shadowAS = proc.NewAddressSpace()
		ib.store = sockmig.NewStore()
		ib.st = ibTransfer
		// The request carries the source migration span's coordinate; the
		// destination's restore tree parents into it — one connected trace
		// spanning both nodes. The return-path packets (acks, RESTORE_DONE)
		// are stamped with the same coordinate.
		sctx := obs.TraceContext{Trace: req.TraceID, Span: req.SpanID}
		ib.pt.begin(ib.m, ib.strat, "inbound", req.PID, sctx)
		if sctx.Valid() {
			sk := ib.conn.Socket()
			sk.Trace = &netsim.TraceRef{Trace: sctx.Trace, Span: sctx.Span}
		}
		// Acks and RESTORE_DONE ride the checkpoint class too (the pull
		// phase restamps to ClassPagePull at resume).
		ib.conn.Socket().Class = netsim.ClassCheckpoint
		ib.silence.renew(ib.m, "migd.lease", ib)
		ib.conn.Send(MsgMigrateAck, nil)
	case MsgSockDelta:
		ib.applySockDelta(payload)
	case MsgChunk:
		ib.onChunk(payload)
	case MsgChunkEnd:
		ib.onChunkEnd(payload)
	case MsgCaptureReq:
		var keys []netsim.FlowKey
		if keys, err = decodeCaptureReq(payload); err != nil {
			break
		}
		if st == ibTransfer { // in idle: acknowledged, nothing to capture for (see ibAccepts)
			for _, k := range keys {
				ib.filters = append(ib.filters, ib.m.Capture.EnableEpoch(k, ib.req.Epoch))
			}
		}
		ib.conn.Send(MsgCaptureAck, nil)
	case MsgPageResp:
		var pr pageResp
		if pr, err = decodePageResp(payload); err == nil {
			ib.puller.onResp(pr)
		}
	case MsgAbort:
		ib.cleanup()
	}
	if err != nil {
		ib.abort(err)
	}
}

// applySockDelta folds an encoded socket delta — a precopy round's, or
// the final image's — into the staging store; false means it aborted.
func (ib *inbound) applySockDelta(b []byte) bool {
	err := ib.store.ApplyEncoded(b)
	if err != nil {
		ib.abort(err)
	}
	return err == nil
}

// restore runs the destination freeze-phase work: fold in the final
// image — the last memory delta, or for a post image the page
// directory (geometry to the frozen shape, holes marked absent) — and
// the socket payload, then rebuild the process after the simulated
// restore cost.
func (ib *inbound) restore(fi finalImage) {
	ib.m.firePhase(&ib.pt, PhaseRestore, 0, ib.req.PID)
	if !ib.m.Node.Alive {
		ib.cleanup()
		return // a phase hook crashed this node
	}
	img, err := ckpt.DecodeImage(fi.Image)
	if err != nil {
		ib.abort(err)
		return
	}
	if ib.strat.final == chunkKindPostImage {
		var dir *ckpt.PageDir
		if dir, err = ckpt.DecodePageDir(fi.Mem); err == nil {
			err = ckpt.ApplyPageDir(ib.shadowAS, dir)
			ib.holes = len(dir.Absent)
		}
	} else {
		err = ckpt.ApplyEncodedDelta(ib.shadowAS, fi.Mem)
	}
	if err != nil {
		ib.abort(err)
		return
	}
	if len(fi.SockDelta) > 0 && !ib.applySockDelta(fi.SockDelta) {
		return
	}
	nsock := ib.store.TCPCount() + ib.store.UDPCount()
	cost := simtime.Duration(nsock)*costSockRestore + costFreezeOverhead
	ib.img = img
	ib.m.sched().AfterCall(cost, "migd.restore", restoreCall, ib, nil)
}

// restoreCall ends the restore window.
func restoreCall(a0, _ any) {
	ib := a0.(*inbound)
	img := ib.img
	ib.img = nil
	ib.finishRestore(img)
}

// closed is the source's hang-up: nothing half-restored survives it.
func (ib *inbound) closed(*Conn) { ib.cleanup() }

func (ib *inbound) finishRestore(img *ckpt.Image) {
	if ib.st != ibRestoring {
		return // aborted during the restore window; state already discarded
	}
	if !ib.m.Node.Alive {
		ib.cleanup()
		return // the node crashed during the restore window
	}
	n := ib.m.Node
	p := n.Arrive(img.Name, ib.req.PID, ib.shadowAS, len(img.Threads))
	for i, ti := range img.Threads {
		p.Threads[i].TID = ti.TID
		p.Threads[i].Regs = ti.Regs
	}
	p.CPUDemand = img.CPUDemand
	if err := ckpt.RestoreFDs(n, p, img.FDs); err != nil {
		ib.abort(err)
		return
	}
	opt := sockmig.RestoreOptions{
		LocalNet: proc.LocalNet, LocalNetBits: proc.LocalNetBits,
		NewLocalIP: n.LocalIP,
	}
	if _, _, err := ib.store.RestoreAll(n.Stack, p, opt); err != nil {
		ib.abort(err)
		return
	}
	if b := takeBehavior(ib.m.sched(), ib.req.Token); b != nil {
		p.Tick = b.Tick
		if b.SigHandlers != nil {
			p.SigHandlers = b.SigHandlers
		}
	}
	if ib.strat.pulls {
		// Install the demand-paging client before anything can touch the
		// address space: reinjected packets and the first loop tick may
		// land on holes.
		ib.puller = newPuller(ib, p)
		ib.st = ibPulling
	}
	// Reinject captured packets through the okfn, then resume.
	ib.m.firePhase(&ib.pt, PhaseReinject, 0, ib.req.PID)
	if !ib.m.Node.Alive {
		// A phase hook crashed this node after the process image was
		// adopted; dismantle so the dead node holds no running state.
		n.Detach(p)
		ib.cleanup()
		return
	}
	var captured, reinjected uint32
	for _, f := range ib.filters {
		captured += uint32(f.Captured)
		nrj, err := ib.m.Capture.ReinjectAndDisable(f)
		if err == nil {
			reinjected += uint32(nrj)
		}
	}
	ib.filters = nil
	p.State = proc.ProcRunning
	if img.LoopPeriod > 0 && p.Tick != nil {
		n.StartLoop(p, img.LoopPeriod)
	}
	now := ib.m.sched().Now()
	if ib.strat.pulls {
		ib.puller.resume(now, captured, reinjected)
	} else {
		ib.conn.Send(MsgRestoreDone, restoreDone{ResumeAt: now, Captured: captured, Reinjected: reinjected}.encode())
	}
	if ib.m.OnArrived != nil {
		m := &Metrics{Strategy: ib.req.Strategy, Mig: ib.strat.name, ResumeAt: now}
		ib.m.OnArrived(p, m)
	}
}
