package migration

import (
	"dvemig/internal/ckpt"
	"dvemig/internal/netsim"
	"dvemig/internal/netstack"
	"dvemig/internal/simtime"
	"dvemig/internal/sockmig"
)

// --- source side: the freeze phase's socket transfer and the final image ----

// iterativeStep migrates sockets one by one: capture sync, disable,
// subtract, transfer — repeated per connection (§III-C's "natural way",
// whose overhead motivated the collective design). The cursor is
// ob.iterTCP/iterUDP; the socket in hand is ob.iterKey at ob.iterFD.
func (ob *outbound) iterativeStep() {
	if ob.over() {
		return
	}
	tcp, udp := ob.iterTCP, ob.iterUDP
	if len(tcp) == 0 && len(udp) == 0 {
		ob.sendFinal(nil)
		return
	}
	if len(tcp) > 0 {
		sk := tcp[0]
		ob.iterFD = sockmig.FDOf(ob.p, sk)
		if sk.State == netstack.TCPListen {
			ob.iterKey = netsim.FlowKey{LocalPort: sk.LocalPort, Proto: netsim.ProtoTCP}
		} else {
			ob.iterKey = netsim.FlowKey{RemoteIP: sk.RemoteIP, RemotePort: sk.RemotePort,
				LocalPort: sk.LocalPort, Proto: netsim.ProtoTCP}
		}
	} else {
		us := udp[0]
		ob.iterFD = sockmig.FDOfUDP(ob.p, us)
		ob.iterKey = netsim.FlowKey{LocalPort: us.LocalPort, Proto: netsim.ProtoUDP}
	}
	ob.captureSync((*outbound).iterativeSubtract, ob.iterKey)
}

// iterativeSubtract charges the subtraction of the socket in hand.
func (ob *outbound) iterativeSubtract() {
	ob.m.sched().AfterCall(costSockSubtract, "migd.subtract", iterativeSubtractCall, ob, nil)
}

// iterativeSubtractCall subtracts the socket in hand and ships it in its
// own message (the per-socket computation/transmission interleaving).
func iterativeSubtractCall(a0, _ any) {
	ob := a0.(*outbound)
	if ob.over() {
		return
	}
	ob.attrSer += costSockSubtract
	// Anything arriving for this connection while it is out of the hash
	// tables is captured locally: reinjected on abort, discarded on
	// success (the destination's filter has its own copy via the
	// broadcast).
	if ob.m.Config.EnableCapture {
		ob.localFilters = append(ob.localFilters, ob.m.Capture.EnableEpoch(ob.iterKey, ob.epoch))
	}
	var sd *sockmig.SockDelta
	if len(ob.iterTCP) > 0 {
		ob.iterTCP[0].Unhash()
		sd = sockmig.SingleTCP(ob.iterFD, ob.iterTCP[0])
		ob.metrics.TCPMigrated++
		ob.iterTCP = ob.iterTCP[1:]
	} else {
		ob.iterUDP[0].Unhash()
		sd = sockmig.SingleUDP(ob.iterFD, ob.iterUDP[0])
		ob.metrics.UDPMigrated++
		ob.iterUDP = ob.iterUDP[1:]
	}
	sock := sd.Wire()
	ob.metrics.FreezeSockBytes += uint64(len(sock))
	ob.send(MsgSockDelta, sock)
	ob.iterativeStep()
}

// captureSync has the destination enable capture filters for keys — all
// of a collective migration's connections in one message, one of an
// iterative's — and runs then on its single acknowledgement (at once
// when capture is ablated). The wait is coordination time.
func (ob *outbound) captureSync(then func(*outbound), keys ...netsim.FlowKey) {
	if !ob.m.Config.EnableCapture {
		then(ob)
		return
	}
	ob.capStart = ob.m.sched().Now()
	ob.onCaptureAck = then
	ob.send(MsgCaptureReq, encodeCaptureReq(keys))
}

// collectivePhase2 disables all sockets, subtracts their state into one
// unified buffer and transfers it in one go; the incremental variant
// subtracts only the sections changed since the last precopy round.
func (ob *outbound) collectivePhase2() {
	ob.m.firePhase(&ob.pt, PhaseTransfer, 0, ob.p.PID)
	if ob.over() {
		return
	}
	tcp, udp := ob.p.Sockets()
	n := len(tcp) + len(udp)
	if ob.m.Config.Strategy == sockmig.IncrementalCollective {
		ob.subtractCost = simtime.Duration(n) * costSockTrack
	} else {
		ob.subtractCost = simtime.Duration(n) * costSockSubtract
	}
	ob.m.sched().AfterCall(ob.subtractCost, "migd.subtract", collectiveSubtractCall, ob, nil)
}

// collectiveSubtractCall disables every socket and ships the final image
// once the subtraction cost is paid.
func collectiveSubtractCall(a0, _ any) {
	ob := a0.(*outbound)
	if ob.over() {
		return
	}
	ob.attrSer += ob.subtractCost
	// Mirror the destination's capture filters locally so an abort can
	// replay what arrived while the sockets were out of the hash tables
	// (reinjected on rollback, discarded on success).
	if ob.m.Config.EnableCapture {
		for _, k := range sockmig.CaptureKeys(ob.p) {
			ob.localFilters = append(ob.localFilters, ob.m.Capture.EnableEpoch(k, ob.epoch))
		}
	}
	ob.metrics.TCPMigrated, ob.metrics.UDPMigrated = sockmig.DisableAll(ob.p)
	var sd *sockmig.SockDelta
	if ob.m.Config.Strategy == sockmig.IncrementalCollective {
		sd = ob.sockTracker.Delta(ob.p, true)
	} else {
		sd = sockmig.FullDelta(ob.p)
	}
	ob.sendFinal(sd)
}

// sendFinal ships the final image: the minimal checkpoint image (phase
// 3: BLCR's regular iteration excluding the already-processed
// connections), the row's memory payload, and the socket payload — sd is
// nil for the iterative socket strategy, whose sockets were unhashed and
// shipped one by one already. The memory payload is the last delta, or —
// chunkKindPostImage — the page directory: geometry plus a
// present/absent verdict per resident page.
func (ob *outbound) sendFinal(sd *sockmig.SockDelta) {
	var mem func([]byte) []byte
	if ob.strat.final == chunkKindPostImage {
		ob.pullDir = ckpt.BuildPageDir(ob.p.AS, ob.strat.present)
		ob.shipped = make(map[ckpt.PageCoord]bool, len(ob.pullDir.Absent))
		mem = ob.pullDir.AppendEncode
	} else {
		memDelta := ob.memTracker.Delta(ob.p.AS)
		ob.metrics.MemPageBytes += memDelta.PageDataBytes()
		mem = memDelta.AppendEncode
	}
	var sock func([]byte) []byte
	if sd != nil {
		sock = sd.AppendEncode
	}
	// The rounds' encode scratch is idle by now (each round's stream is
	// pumped out at the round's own instant): the image is built in it,
	// every part encoded where it travels.
	var memBytes, sockBytes int
	ob.encBuf, memBytes, sockBytes = appendFinalImage(ob.encBuf[:0], ob.strat.final,
		ob.metrics.FreezeStart, ob.buildImage().AppendEncode, mem, sock)
	ob.metrics.FreezeMemBytes += uint64(memBytes)
	ob.metrics.FreezeSockBytes += uint64(sockBytes)
	// The commit fence rises with the stream's final frame (sendPayload);
	// the destination restores only on a complete image.
	ob.sendPayload(ob.strat.final, ob.encBuf, true)
}

// buildImage assembles the minimal checkpoint image (threads, regular
// FDs, meta) every strategy's freeze payload carries.
func (ob *outbound) buildImage() *ckpt.Image {
	img := &ckpt.Image{
		PID: ob.p.PID, Name: ob.p.Name,
		CPUDemand: ob.p.CPUDemand, LoopPeriod: ob.p.LoopPeriod,
		FDs: ckpt.CheckpointFDsExcludingSockets(ob.p),
	}
	for sig := range ob.p.SigHandlers {
		img.HandledSignals = append(img.HandledSignals, sig)
	}
	for _, th := range ob.p.Threads {
		img.Threads = append(img.Threads, ckpt.ThreadImage{TID: th.TID, Regs: th.Regs})
	}
	return img
}
