package migration

import (
	"errors"
	"fmt"

	"dvemig/internal/capture"
	"dvemig/internal/ckpt"
	"dvemig/internal/netsim"
	"dvemig/internal/netstack"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
	"dvemig/internal/sockmig"
	"dvemig/internal/xlat"
)

// --- source side: connect, rounds, freeze, translation (then transfer.go) ----

type outbound struct {
	m    *Migrator
	p    *proc.Process
	dest netsim.Addr
	conn *Conn
	done func(*Metrics, error)

	memTracker  ckpt.Tracker
	sockTracker *sockmig.Tracker
	timeout     simtime.Duration
	metrics     *Metrics
	token       uint64
	epoch       uint64 // ownership epoch of the migrated service

	// strat is this migration's row of the strategy table (pinned at
	// start so a config change mid-flight cannot switch modes); rng
	// feeds the retry backoff jitter, lazily seeded on first retry.
	strat *Strategy
	rng   *simtime.Rand

	// st is where the migration stands (states.go): what frames it has a
	// place for, whether it may still be cancelled (before obCommitted),
	// whether a failure rolls back or reaps (obServing), and whether it
	// is over. obCommitted is the source-side commit fence: the final
	// image's last frame is on the wire, and the destination completes
	// its restore unconditionally once that image arrives, so from there a
	// voluntary rollback (Cancel, the deadline's first firing) could
	// leave the process running on both nodes. Only evidence of a dead
	// destination — connection close, or the commit grace expiring with
	// no ack — may roll back past the fence. obServing is the point of
	// no return: the destination runs the process.
	st obState

	// encBuf / sockEncBuf are per-migration scratch buffers for delta
	// serialization: the transport copies payloads into the socket send
	// buffer, so each precopy round may reuse the previous round's
	// allocation instead of growing the heap. encBuf, which also carries
	// the final image, is on loan from Migrator.encBufs.
	encBuf     []byte
	sockEncBuf []byte

	// chunkStream numbers outgoing chunk streams (chunkpipe.go); the id
	// lets the destination reject frames from an abandoned stream.
	chunkStream uint32

	// pt is the migration's phase clock and span cursor.
	pt phaseTrack

	// dialGen drives the reconnect machinery (with metrics.Retries, the
	// attempts beyond the first): each attempt's Conn carries the
	// generation it was dialed under, and whatever a superseded one still
	// delivers — a frame, its close, its timeout — is ignored.
	dialGen int

	// rollback records the inverse of every translation request sent
	// during setupTranslation, so an abort can undo partial installs.
	rollback []xlatOp

	// localFilters capture packets for this process's connections on the
	// *source* while its sockets are unhashed: on success they are
	// dropped (the destination's own filters did the real work), on
	// abort they are reinjected into the thawed sockets so nothing that
	// arrived mid-transfer is lost.
	localFilters []*capture.Filter

	// onCaptureAck is the step the capture handshake gates (captureSync),
	// armed at capStart; subtractCost is what the collective subtraction
	// in flight charges. iterTCP, iterUDP, iterKey and iterFD are the
	// iterative strategy's cursor: the sockets still to move and the one
	// being moved.
	onCaptureAck func(*outbound)
	capStart     simtime.Time
	subtractCost simtime.Duration
	iterTCP      []*netstack.TCPSocket
	iterUDP      []*netstack.UDPSocket
	iterKey      netsim.FlowKey
	iterFD       int

	// Pull-server state (postcopy.go), live in obServing. watch bounds the
	// destination's silence there.
	pullDir         *ckpt.PageDir
	shipped         map[ckpt.PageCoord]bool
	shipCursor      int
	pullsServed     int
	prefetchBatches int
	watch           silenceTimer

	// Freeze-time attribution (paper Fig 5b's breakdown axis): the three
	// directly measurable components of the freeze window accumulate
	// here — coordination (signal/freeze overhead plus capture-filter
	// handshakes), xlat (translation-rule installs on peers), and socket
	// serialization (per-socket subtract cost). Page copy — shipping the
	// freeze image and the destination's restore — is the remainder of
	// FreezeTime, computed at the end. Plain duration adds on the hot
	// path; the histograms are only resolved (per connection count) once
	// per completed migration when the plane is enabled.
	attrCoord simtime.Duration
	attrXlat  simtime.Duration
	attrSer   simtime.Duration
}

// over reports whether the migration has ended (either way).
func (ob *outbound) over() bool { return ob.st >= obDone }

// xlatOp is one translation request to (un)do during rollback.
type xlatOp struct {
	peer netsim.Addr
	add  bool
	rule xlat.Rule
}

// dial opens one migd connection attempt, stamped with its generation.
func (ob *outbound) dial() {
	ob.dialGen++
	sk := netstack.NewTCPSocket(ob.m.Node.Stack)
	// Stamp the migd control connection with the migration's causal
	// coordinate: every packet it emits carries the (trace, span) pair as
	// out-of-band metadata, so packet-level tooling can attribute
	// migration-critical traffic to the end-to-end trace.
	if c := ob.pt.root.Context(); c.Valid() {
		sk.Trace = &netsim.TraceRef{Trace: c.Trace, Span: c.Span}
	}
	// The outbound leg carries checkpoint transfer until (under a row
	// that pulls) handover restamps it to the pull class.
	sk.Class = netsim.ClassCheckpoint
	sk.RTOMin = migdRTOMin
	ob.conn = newConn(sk, ob, &ob.m.recvBufs)
	ob.conn.gen = ob.dialGen
	if err := sk.Connect(ob.dest, MigdPort); err != nil {
		ob.end(err)
		return
	}
	// Guard against an unreachable destination. The timeout and the
	// retry/backoff schedule come from the config (satellite fix: this
	// used to be a hard-coded 5 s with no retry).
	ob.m.sched().AfterCall(ob.m.Config.ConnTimeout, "migd.conn-timeout", connTimeoutCall, ob, ob.conn)
}

// connTimeoutCall is an attempt's timeout; connFailed ignores it once the
// attempt is superseded or connected.
func connTimeoutCall(a0, a1 any) {
	a0.(*outbound).connFailed(a1.(*Conn), errors.New("migration: destination unreachable"))
}

// readable watches the handshake: the first readiness of the current,
// established attempt sends the request.
func (ob *outbound) readable(c *Conn) {
	if c.gen != ob.dialGen {
		return
	}
	// "Request not sent yet" is "no token yet", not obConnecting: a
	// migration that ended while still connecting (a cancel, the
	// deadline) answers its SYN-ACK with PhaseConnect and a MIGRATE_REQ
	// all the same, and those bytes are in the trace hashes (ROADMAP
	// 1(c)(iv)). Its state stays ended.
	if c.sk.State == netstack.TCPEstablished && ob.token == 0 {
		if ob.st == obConnecting {
			ob.st = obAwaitAck
		}
		ob.m.firePhase(&ob.pt, PhaseConnect, 0, ob.p.PID)
		ob.start()
	}
}

// closed is the current attempt's hang-up: a refusal while connecting
// (retried), the end of the migration after.
func (ob *outbound) closed(c *Conn) {
	if c.gen != ob.dialGen {
		return
	}
	if ob.st == obConnecting {
		ob.connFailed(c, errors.New("migration: destination refused the connection"))
		return
	}
	ob.end(errors.New("migration: destination closed the connection"))
}

// connFailed handles a failed connection attempt: retry with exponential
// backoff while the budget lasts, then abort.
func (ob *outbound) connFailed(c *Conn, err error) {
	if c.gen != ob.dialGen || ob.st != obConnecting {
		return
	}
	if ob.metrics.Retries >= ob.m.Config.ConnRetries {
		ob.end(err)
		return
	}
	ob.metrics.Retries++
	ob.dialGen++ // supersede the abandoned attempt
	ob.conn.Close()
	if ob.rng == nil && ob.m.Config.RetryJitter > 0 {
		// Seeded from the migration's identity (PID, start instant):
		// deterministic per run, decorrelated across migrations.
		ob.rng = simtime.NewRand(uint64(ob.p.PID)<<32 ^ uint64(ob.metrics.Start) ^ 0x6d696764)
	}
	backoff := ob.m.Config.retryPolicy().Delay(ob.metrics.Retries, ob.rng)
	ob.m.sched().AfterCall(backoff, "migd.conn-retry", connRetryCall, ob, nil)
}

func connRetryCall(a0, _ any) {
	if ob := a0.(*outbound); ob.st == obConnecting {
		ob.dial()
	}
}

func (ob *outbound) start() {
	ob.token = registerBehavior(ob.m.sched(), &ckpt.Behavior{Tick: ob.p.Tick, SigHandlers: ob.p.SigHandlers})
	ob.epoch = ob.m.Epochs.Current(ob.p.Name)
	rctx := ob.pt.root.Context()
	req := migrateReq{PID: ob.p.PID, Strategy: ob.m.Config.Strategy,
		Mode: ob.strat.mode, Token: ob.token,
		Epoch: ob.epoch, TraceID: rctx.Trace, SpanID: rctx.Span, Name: ob.p.Name}
	ob.send(MsgMigrateReq, req.encode())
}

func (ob *outbound) send(t MsgType, payload []byte) {
	if err := ob.conn.Send(t, payload); err != nil {
		ob.end(err)
	}
}

// frame is the source's half of the protocol: the (state × type) table
// decides whether the frame has a place, the switch what it does there.
func (ob *outbound) frame(c *Conn, t MsgType, payload []byte) {
	if c.gen != ob.dialGen || ob.over() {
		return
	}
	if !accepts(ob.strat.obAccepts(ob.st), t) {
		ob.end(&protocolError{t: t, state: obStateNames[ob.st]})
		return
	}
	if ob.st == obServing {
		ob.watch.renew(ob.m, "migd.pull-watch", ob)
	}
	var err error
	switch t {
	case MsgMigrateAck:
		ob.st = obTransfer
		if ob.strat.rounds == roundsNone || ob.strat.rounds == roundsAll && !ob.m.Config.EnablePrecopy {
			ob.freeze()
		} else {
			ob.precopyRound()
		}
	case MsgCaptureAck:
		if then := ob.onCaptureAck; then != nil {
			ob.onCaptureAck = nil
			ob.attrCoord += ob.m.sched().Now() - ob.capStart
			then(ob)
		}
	case MsgRestoreDone, MsgResumed:
		// The row's committed column let exactly one of the two through;
		// they carry the same payload.
		var rd restoreDone
		if rd, err = decodeRestoreDone(payload); err == nil {
			ob.resumed(rd)
		}
	case MsgPageReq:
		var pr pageReq
		if pr, err = decodePageReq(payload); err == nil {
			ob.servePull(pr)
		}
	case MsgPullsDone:
		var pd pullsDone
		if pd, err = decodePullsDone(payload); err == nil {
			ob.complete(pd.LastFillAt, simtime.Duration(pd.StallNs))
		}
	case MsgAbort:
		err = errAborted
		if len(payload) > 0 {
			err = fmt.Errorf("%w: %s", errAborted, payload)
		}
	}
	if err != nil {
		ob.end(err)
	}
}

// precopyRound runs one iteration of the Fig 3 helper-thread loop: dump
// address-space changes (and, for the incremental socket strategy,
// socket changes), then sleep for the current timeout while the
// application keeps running; halve the timeout and either iterate or
// freeze. A roundsOne row freezes after the first: one full dump of the
// resident set, one wait of the initial timeout, and the pages dirtied
// during the wait become the pull phase's residual.
func (ob *outbound) precopyRound() {
	ob.metrics.Rounds++
	ob.m.firePhase(&ob.pt, PhasePrecopy, ob.metrics.Rounds, ob.p.PID)
	if ob.over() {
		return // a phase hook may have aborted the migration
	}
	// A quiescent round — nothing changed since the last scan — sends no
	// delta stream (mirroring the socket delta's emptiness guard below).
	// Rounds still counts — the loop ran — but the round contributes zero
	// delta bytes.
	d, n := ob.memTracker.Delta(ob.p.AS), 0
	if !d.Empty() {
		ob.encBuf = d.EncodeInto(ob.encBuf)
		n = len(ob.encBuf)
		ob.metrics.PrecopyMemBytes += uint64(n)
		ob.metrics.MemPageBytes += d.PageDataBytes()
	}
	if ob.m.Obs != nil {
		ob.m.obsm.roundBytes.Observe(float64(n))
		ob.pt.cur.SetInt("mem_bytes", int64(n))
	}
	if n > 0 {
		ob.sendPayload(chunkKindMemDelta, ob.encBuf, false)
	}
	wait := ob.timeout
	if ob.m.Config.Strategy == sockmig.IncrementalCollective {
		sd := ob.sockTracker.Delta(ob.p, false)
		ntcp, nudp := ob.p.Sockets()
		wait += simtime.Duration(len(ntcp)+len(nudp)) * costSockTrack
		if !sd.Empty() {
			ob.sockEncBuf = sd.EncodeInto(ob.sockEncBuf)
			ob.metrics.PrecopySockBytes += uint64(len(ob.sockEncBuf))
			ob.send(MsgSockDelta, ob.sockEncBuf)
		}
	}
	ob.timeout /= 2
	ob.m.sched().AfterCall(wait, ob.strat.roundLabel, roundWaitCall, ob, nil)
}

// roundWaitCall ends a round's wait: iterate, or freeze.
func roundWaitCall(a0, _ any) {
	ob := a0.(*outbound)
	if ob.over() {
		return
	}
	if ob.strat.rounds == roundsOne || ob.timeout < freezeThreshold {
		ob.freeze()
	} else {
		ob.precopyRound()
	}
}

// freeze enters the freeze phase: signal the application (threads abandon
// system calls and return to userspace, leaving backlog and prequeue
// empty), stop the real-time loop, then run capture setup, address
// translation and socket migration according to the strategy.
func (ob *outbound) freeze() {
	ob.m.firePhase(&ob.pt, PhaseFreeze, 0, ob.p.PID)
	if ob.over() {
		return
	}
	ob.metrics.FreezeStart = ob.m.sched().Now()
	ob.metrics.ProcCPUDemand = ob.p.CPUDemand
	ob.p.Signal(proc.SIGCKPT)
	ob.p.State = proc.ProcFrozen
	ob.m.Node.StopLoop(ob.p)
	ob.m.sched().AfterCall(costFreezeOverhead, "migd.freeze", frozenCall, ob, nil)
}

// frozenCall runs once the freeze overhead is paid: translation first,
// then the socket transfer (translated).
func frozenCall(a0, _ any) {
	ob := a0.(*outbound)
	ob.attrCoord += costFreezeOverhead
	ob.setupTranslation()
}

// translated starts the socket transfer the strategy names.
func (ob *outbound) translated() {
	switch ob.m.Config.Strategy {
	case sockmig.Iterative:
		ob.iterTCP, ob.iterUDP = sockmig.SocketsInFDOrder(ob.p)
		ob.m.firePhase(&ob.pt, PhaseTransfer, 0, ob.p.PID)
		ob.iterativeStep()
	default:
		ob.captureSync((*outbound).collectivePhase2, sockmig.CaptureKeys(ob.p)...)
	}
}

// setupTranslation installs translation filters on the peers of all
// in-cluster connections (§III-C): the peer rewrites packets addressed to
// the connection's original identity so they reach the destination node.
// The socket transfer (translated) follows once every peer has answered.
func (ob *outbound) setupTranslation() {
	xlatStart := ob.m.sched().Now()
	var rules []xlatOp
	tcp, _ := ob.p.Sockets()
	for _, sk := range tcp {
		if sk.State != netstack.TCPEstablished || !ob.inCluster(sk.RemoteIP) {
			continue
		}
		oldAddr := sk.OrigLocalIP
		if oldAddr == 0 {
			oldAddr = sk.LocalIP
		}
		// The socket names the peer by its *original* address; if the
		// peer has itself migrated, our local translation table knows
		// its current home — send the request there (both-ends
		// migration support).
		peer := sk.RemoteIP
		local, translated := ob.m.Transd.Translator().FlowRule(netsim.ProtoTCP,
			sk.RemoteIP, sk.LocalPort, sk.RemotePort)
		if translated {
			peer = local.NewAddr
		}
		rules = append(rules, xlatOp{
			peer: peer, add: true,
			rule: xlat.Rule{Proto: netsim.ProtoTCP, OldAddr: oldAddr, NewAddr: ob.dest,
				LocalPort: sk.RemotePort, RemotePort: sk.LocalPort, Epoch: ob.epoch},
		})
		// The inverse, should the migration abort: point the peer's rule
		// back at the flow's real current home. If the socket never
		// migrated before, that is an identity mapping the translator
		// collapses into a removal; for a chained migration it retargets
		// the rule back to this node.
		ob.rollback = append(ob.rollback, xlatOp{
			peer: peer, add: true,
			rule: xlat.Rule{Proto: netsim.ProtoTCP, OldAddr: oldAddr, NewAddr: sk.LocalIP,
				LocalPort: sk.RemotePort, RemotePort: sk.LocalPort, Epoch: ob.epoch},
		})
		// If this node is translating the socket's own outgoing traffic
		// (its peer migrated before), the rule must move with the socket:
		// replicate it onto the destination node.
		if translated {
			rules = append(rules, xlatOp{peer: ob.dest, add: true, rule: local})
			ob.rollback = append(ob.rollback, xlatOp{peer: ob.dest, add: false, rule: local})
		}
	}
	if len(rules) == 0 {
		ob.translated()
		return
	}
	pending := len(rules)
	var firstErr error
	for _, r := range rules {
		ob.m.Xlat.Request(r.peer, r.add, r.rule, func(err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
			pending--
			if pending == 0 {
				ob.attrXlat += ob.m.sched().Now() - xlatStart
				if firstErr != nil {
					ob.end(firstErr)
					return
				}
				if ob.over() {
					return
				}
				ob.translated()
			}
		})
	}
}

func (ob *outbound) inCluster(addr netsim.Addr) bool {
	const hostBits = 32 - proc.LocalNetBits
	return addr>>hostBits == proc.LocalNet>>hostBits
}
