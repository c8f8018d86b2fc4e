package netstack

import (
	"errors"
	"fmt"

	"dvemig/internal/netsim"
	"dvemig/internal/simtime"
	"dvemig/internal/wire"
)

// TCPState is the protocol state of a socket.
type TCPState int

// TCP states (the subset of RFC 793 the simulation exercises; the paper
// migrates sockets in Established or Listen state).
const (
	TCPClosed TCPState = iota
	TCPListen
	TCPSynSent
	TCPSynRcvd
	TCPEstablished
	TCPFinWait1
	TCPFinWait2
	TCPCloseWait
	TCPLastAck
	TCPClosing
	TCPTimeWait
)

// String names the state.
func (s TCPState) String() string {
	names := [...]string{"CLOSED", "LISTEN", "SYN_SENT", "SYN_RCVD", "ESTABLISHED",
		"FIN_WAIT1", "FIN_WAIT2", "CLOSE_WAIT", "LAST_ACK", "CLOSING", "TIME_WAIT"}
	if int(s) < len(names) {
		return names[s]
	}
	return "UNKNOWN"
}

// TCP tuning constants.
const (
	// DefaultMSS is the maximum segment payload; 1448 matches Ethernet
	// MTU 1500 minus IP/TCP headers with timestamps.
	DefaultMSS = 1448
	// MinRTO / MaxRTO bound the retransmission timeout like Linux
	// (TCP_RTO_MIN is 200 ms on 2.6 kernels). MinRTO is the default
	// floor; a socket's RTOMin replaces it.
	MinRTO = 200 * simtime.Duration(1e6)
	MaxRTO = 120 * simtime.Duration(1e9)
	// InitialCwnd / DefaultSsthresh, in segments.
	InitialCwnd     = 10
	DefaultSsthresh = 64
	// TimeWaitDelay is deliberately short; the simulation does not study
	// 2MSL behaviour.
	TimeWaitDelay = 200 * simtime.Duration(1e6)
	// DefaultRcvBuf is the receive buffer bound, and thus the largest
	// window a socket advertises (fits the 16-bit header field).
	DefaultRcvBuf = 65535
	// PersistInterval paces zero-window probes when the peer's buffer is
	// full and the window-update ACK might have been lost.
	PersistInterval = 500 * simtime.Duration(1e6)
	// MaxConsecRetrans bounds consecutive RTO expirations without forward
	// progress before the connection is aborted, mirroring Linux's
	// tcp_retries2 default of 15. With exponential backoff from the RTO
	// floor the budget spans many simulated minutes, so ordinary experiments
	// never hit it — only connections whose peer is gone for good, which
	// would otherwise re-arm their timer forever and keep the event queue
	// from draining.
	MaxConsecRetrans = 15
)

// ErrNotConnected is returned by Send on a socket that cannot carry data.
var ErrNotConnected = errors.New("netstack: socket not connected")

// TCPSocket models struct tcp_sock closely enough for the migration
// mechanism: identity, sequence state, congestion/RTT state, jiffies
// timestamps, and the five socket-buffer queues enumerated in §V-C1.
type TCPSocket struct {
	stack *Stack

	State      TCPState
	LocalIP    netsim.Addr
	LocalPort  uint16
	RemoteIP   netsim.Addr
	RemotePort uint16

	// OrigLocalIP preserves the connection's original local address
	// across (repeated) in-cluster migrations: the peer's socket still
	// names that address as its remote, and every translation rule must
	// be keyed on it (§III-C). Zero until the first migration rewrites
	// LocalIP.
	OrigLocalIP netsim.Addr

	// Send sequence state.
	ISS    uint32 // initial send sequence
	SndUna uint32 // oldest unacknowledged
	SndNxt uint32 // next to send

	// Receive sequence state.
	IRS    uint32 // initial receive sequence
	RcvNxt uint32 // next expected

	// Congestion and RTT state (cwnd/ssthresh in segments, times in ms).
	Cwnd     uint32
	Ssthresh uint32
	SRTTms   int
	RTTVarms int
	RTOms    int

	// Flow control: SndWnd is the peer's last advertised receive window;
	// RcvBufMax bounds the local receive buffer and therefore the window
	// this socket advertises.
	SndWnd    uint32
	RcvBufMax int

	// TSRecent is the most recent peer timestamp (jiffies of the *peer*);
	// LastTxJiffies is the local jiffies of the last transmission. Both
	// are what timestamp adjustment rewrites after migration.
	TSRecent      uint32
	LastTxJiffies uint32

	// TSOffset is added to the node's jiffies counter whenever this
	// socket emits or interprets a TCP timestamp. It is zero for sockets
	// born on this node; RestoreTCP sets it so a migrated socket keeps
	// ticking on its *original* node's timestamp clock (the equivalent of
	// Linux's per-socket tsoffset installed via TCP_TIMESTAMP during
	// repair). Without it, the peer's echoed timestamps — generated
	// against the source node's clock — would poison RTT samples on the
	// destination with the inter-node boot-time delta.
	TSOffset uint32

	MSS int

	// Trace identifies the causal trace of the migration (or checkpoint
	// stream) this socket serves. Nil for application sockets; the
	// migration engine stamps its control connections with one shared
	// immutable TraceRef so every segment the socket emits carries the
	// trace context as out-of-band packet metadata. Not serialized by
	// migration: a migrated application socket starts clean.
	Trace *netsim.TraceRef

	// Class is the traffic class stamped onto every segment the socket
	// emits (netsim.Packet.Class). The migration engine flips its
	// control connection to netsim.ClassPagePull when the post-copy
	// demand-pull phase begins so NIC accounting can separate pull
	// traffic from the application's. Like Trace, not serialized.
	Class byte

	// RTOMin is this socket's retransmission-timeout floor, modelled on
	// Linux's per-route rto_min metric (RTAX_RTO_MIN). Zero means MinRTO.
	// The migration engine lowers it on its own control connections,
	// whose in-cluster RTT reads as zero jiffies; application sockets keep
	// the default. Like Trace, not serialized.
	RTOMin simtime.Duration

	// The five queues of §V-C1. writeQueue holds sent-but-unacked
	// segments (retransmission source); sndBuf is app data not yet
	// segmented because cwnd or the peer's window refused it.
	// receiveQueue holds in-order data the application has not read;
	// oooQueue holds out-of-window-order segments; backlog holds packets
	// that arrived while the socket was locked by a system call;
	// prequeue feeds the fast-path receive.
	// sndBuf holds only what a Send could not segment at once (push);
	// sndBuf[sndOff:] is the unsegmented part: segmenting advances sndOff
	// instead of re-slicing, so the buffer keeps its capacity and a
	// throttled sender appends without allocating. ahead is what SendAhead
	// announced and the Sends since have not yet delivered: the first Send
	// that must buffer grows sndBuf once to hold its remainder and all of
	// that, so a burst of Sends at one instant never regrows it. Like
	// RTOMin, ahead is not serialized.
	writeQueue   []*netsim.Packet
	sndBuf       []byte
	sndOff       int
	ahead        int
	receiveQueue []*netsim.Packet
	oooQueue     []*netsim.Packet
	backlog      []*netsim.Packet
	prequeue     []*netsim.Packet

	retransTimer *simtime.Event
	rtoPending   bool
	dupAcks      int
	// consecRetrans counts RTO expirations without forward progress;
	// MaxConsecRetrans of them abort the connection (tcp_retries2).
	consecRetrans int
	// Retransmits counts timer-driven resends; the capture ablation
	// experiment shows these appearing when capture is disabled.
	// FastRetransmits counts triple-dup-ack recoveries.
	Retransmits     uint64
	FastRetransmits uint64
	// TimedOut reports that the connection was aborted after exhausting
	// its retransmission budget (the kernel's ETIMEDOUT path). Without
	// this cap a connection whose peer crashed would re-arm its RTO
	// forever and the event queue would never drain.
	TimedOut bool

	// ehashNext chains the sockets of one ehash bucket (table.go).
	ehashNext *TCPSocket

	locked        bool
	readerWaiting bool
	unhashed      bool
	ownsBind      bool
	rcvBufUsed    int
	persistTimer  *simtime.Event

	dst *netsim.DstEntry

	// OnAccept (listeners) receives each fully established child; a
	// listener keeps no reference to its children.
	OnAccept func(child *TCPSocket)

	// OnReadable fires when data (or EOF) becomes available.
	OnReadable func()
	eof        bool

	// BytesIn / BytesOut count application payload for tests.
	BytesIn, BytesOut uint64
}

// NewTCPSocket allocates a closed socket on the stack.
func NewTCPSocket(s *Stack) *TCPSocket {
	return &TCPSocket{
		stack:     s,
		State:     TCPClosed,
		Cwnd:      InitialCwnd,
		Ssthresh:  DefaultSsthresh,
		RTOms:     1000,
		MSS:       DefaultMSS,
		SndWnd:    DefaultRcvBuf,
		RcvBufMax: DefaultRcvBuf,
	}
}

// Stack returns the owning stack.
func (sk *TCPSocket) Stack() *Stack { return sk.stack }

// Tuple returns the connection four-tuple.
func (sk *TCPSocket) Tuple() FourTuple {
	return FourTuple{LocalIP: sk.LocalIP, LocalPort: sk.LocalPort, RemoteIP: sk.RemoteIP, RemotePort: sk.RemotePort}
}

// Listen binds the socket to port on addr and enters LISTEN state,
// inserting it into the bhash table.
func (sk *TCPSocket) Listen(addr netsim.Addr, port uint16) error {
	if sk.stack.bhash.get(port) != nil {
		return fmt.Errorf("netstack %s: port %d already bound", sk.stack.Name, port)
	}
	sk.LocalIP = addr
	sk.LocalPort = port
	sk.State = TCPListen
	sk.ownsBind = true
	sk.stack.bhash.set(port, sk)
	return nil
}

// Connect initiates the three-way handshake toward addr:port.
func (sk *TCPSocket) Connect(addr netsim.Addr, port uint16) error {
	src, err := sk.stack.SourceAddrFor(addr)
	if err != nil {
		return err
	}
	sk.LocalIP = src
	sk.LocalPort = sk.stack.allocEphemeral()
	sk.RemoteIP = addr
	sk.RemotePort = port
	sk.ownsBind = true
	sk.stack.bhash.set(sk.LocalPort, sk)
	sk.ISS = sk.stack.nextISN()
	sk.SndUna = sk.ISS
	sk.SndNxt = sk.ISS + 1
	sk.State = TCPSynSent
	sk.stack.ehash.put(sk)
	if sk.dst, err = sk.stack.DstFor(addr); err != nil {
		return err
	}
	syn := sk.makePacket(netsim.FlagSYN, sk.ISS, 0, nil)
	sk.writeQueue = append(sk.writeQueue, syn)
	sk.stack.transmit(syn.Clone())
	sk.armRetransTimer()
	return nil
}

// listenInput handles a segment addressed to a listening port: a SYN
// spawns a half-open child socket that is immediately inserted into the
// ehash table (so retransmitted handshake segments find it). The listener
// is a sink: it reads the header and never retains the segment.
func (sk *TCPSocket) listenInput(p *netsim.Packet) {
	defer p.Release()
	if p.Flags&netsim.FlagSYN == 0 || p.Flags&netsim.FlagACK != 0 {
		return
	}
	child := NewTCPSocket(sk.stack)
	child.LocalIP = p.DstIP
	child.LocalPort = p.DstPort
	child.RemoteIP = p.SrcIP
	child.RemotePort = p.SrcPort
	if sk.stack.ehash.get(child.ekey()) != nil {
		return // duplicate SYN for an in-progress connection
	}
	child.IRS = p.Seq
	child.RcvNxt = p.Seq + 1
	child.ISS = sk.stack.nextISN()
	child.SndUna = child.ISS
	child.SndNxt = child.ISS + 1
	child.TSRecent = p.TSVal
	child.State = TCPSynRcvd
	sk.stack.ehash.put(child)
	d, err := sk.stack.DstFor(p.SrcIP)
	if err != nil {
		sk.stack.ehash.del(child.ekey())
		return
	}
	child.dst = d
	synack := child.makePacket(netsim.FlagSYN|netsim.FlagACK, child.ISS, child.RcvNxt, nil)
	child.writeQueue = append(child.writeQueue, synack)
	sk.stack.transmit(synack.Clone())
	child.armRetransTimer()
}

// Send queues application data for transmission. With nothing waiting in
// the send buffer the bytes are segmented straight out of data; only what
// the congestion window or the peer's refuses is copied into the buffer.
// data is not retained.
func (sk *TCPSocket) Send(data []byte) error {
	if sk.unhashed {
		// Disabled by migration: the connection lives elsewhere now.
		return ErrNotConnected
	}
	switch sk.State {
	case TCPEstablished, TCPCloseWait:
	default:
		return ErrNotConnected
	}
	sk.BytesOut += uint64(len(data))
	sk.ahead = max(sk.ahead-len(data), 0)
	if len(sk.unsent()) == 0 {
		if rest := sk.push(data); len(rest) > 0 {
			sk.buffer(rest)
		}
		return nil
	}
	// Bytes are already waiting: the new ones queue behind them, and
	// segments are cut from the concatenation.
	sk.buffer(data)
	sk.pushUnsent()
	return nil
}

// SendAhead announces that n more bytes will be Sent at this instant, in
// as many calls as the caller likes. It changes no segment: push still
// cuts each Send as it comes. It only sizes the send buffer, lazily —
// should a Send have to buffer bytes the window refuses, the buffer grows
// once to hold them and everything still announced — so a burst the
// window takes whole costs no buffer at all. An announcement the Sends
// never deliver is spent by the next Send that buffers, which
// over-reserves by it once.
func (sk *TCPSocket) SendAhead(n int) { sk.ahead += n }

// buffer appends data behind the unsent bytes, first reclaiming the
// segmented prefix and, when data does not fit, growing the buffer once
// for it and what SendAhead still announces. A buffer grown to a pooled
// size comes from the wire pool.
func (sk *TCPSocket) buffer(data []byte) {
	if sk.sndOff > 0 && len(sk.sndBuf)+len(data) > cap(sk.sndBuf) {
		sk.sndBuf = sk.sndBuf[:copy(sk.sndBuf, sk.sndBuf[sk.sndOff:])]
		sk.sndOff = 0
	}
	if len(sk.sndBuf)+len(data) > cap(sk.sndBuf) {
		sk.sndBuf = wire.Grow(sk.sndBuf, len(data)+sk.ahead)
		sk.ahead = 0
	}
	sk.sndBuf = append(sk.sndBuf, data...)
}

// unsent returns the application bytes not yet segmented.
func (sk *TCPSocket) unsent() []byte { return sk.sndBuf[sk.sndOff:] }

// segmented marks the first n unsent bytes as handed to the write queue.
// A buffer that drains empty is kept for the next Send that must buffer,
// unless the wire pool takes it: a migd burst's buffer serves the next
// migration's, in this cell or another.
func (sk *TCPSocket) segmented(n int) {
	sk.sndOff += n
	if sk.sndOff == len(sk.sndBuf) {
		sk.sndOff = 0
		if wire.Give(sk.sndBuf) {
			sk.sndBuf = nil
		} else {
			sk.sndBuf = sk.sndBuf[:0]
		}
	}
}

// Recv drains the in-order receive queue and returns its payload bytes in
// a fresh slice. It never blocks; it returns nil when nothing is buffered.
func (sk *TCPSocket) Recv() []byte { return sk.RecvAppend(nil) }

// RecvAppend drains the in-order receive queue, appending its payload
// bytes to dst, and returns the extended slice. A reader that keeps its
// buffer across calls reads without allocating.
func (sk *TCPSocket) RecvAppend(dst []byte) []byte {
	for _, p := range sk.receiveQueue {
		dst = append(dst, p.Payload...)
	}
	sk.Discard() // bytes copied out
	return dst
}

// Discard drains the in-order receive queue without copying the bytes
// out, for readers that consume and drop. It returns the byte count.
func (sk *TCPSocket) Discard() int {
	n := 0
	for i, p := range sk.receiveQueue {
		n += len(p.Payload)
		p.Release()
		sk.receiveQueue[i] = nil
	}
	sk.receiveQueue = sk.receiveQueue[:0]
	if n > 0 {
		wasFull := sk.rcvBufUsed >= sk.RcvBufMax-sk.MSS
		sk.rcvBufUsed -= n
		if sk.rcvBufUsed < 0 {
			sk.rcvBufUsed = 0
		}
		// The application freed a previously exhausted buffer: announce
		// the reopened window so a stalled sender resumes.
		if wasFull && sk.State == TCPEstablished && !sk.unhashed {
			sk.sendAck()
		}
	}
	return n
}

// ReleaseQueues ends the socket's hold on every queued packet — write,
// receive, out-of-order, backlog and prequeue. Nothing reads or sends on
// the socket afterwards: it is the migrated-away original, whose queues
// the image carried by copy, or its cell has ended (Stack.ReleaseQueues).
func (sk *TCPSocket) ReleaseQueues() {
	sk.writeQueue = releaseAll(sk.writeQueue)
	sk.receiveQueue = releaseAll(sk.receiveQueue)
	sk.oooQueue = releaseAll(sk.oooQueue)
	sk.backlog = releaseAll(sk.backlog)
	sk.prequeue = releaseAll(sk.prequeue)
}

// releaseAll releases every packet of q and returns it emptied.
func releaseAll(q []*netsim.Packet) []*netsim.Packet {
	for i, p := range q {
		p.Release()
		q[i] = nil
	}
	return q[:0]
}

// EOF reports whether the peer closed its direction.
func (sk *TCPSocket) EOF() bool { return sk.eof }

// Close starts an orderly shutdown (FIN). A migrated-away (unhashed)
// socket is disabled: closing it tears down local state without touching
// the network — the connection now lives on the destination node.
func (sk *TCPSocket) Close() {
	if sk.unhashed {
		sk.State = TCPClosed
		return
	}
	switch sk.State {
	case TCPListen:
		sk.stack.bhash.set(sk.LocalPort, nil)
		sk.State = TCPClosed
	case TCPEstablished:
		sk.State = TCPFinWait1
		sk.sendFIN()
	case TCPCloseWait:
		sk.State = TCPLastAck
		sk.sendFIN()
	case TCPClosed:
	default:
		// Already closing.
	}
}

func (sk *TCPSocket) sendFIN() {
	fin := sk.makePacket(netsim.FlagFIN|netsim.FlagACK, sk.SndNxt, sk.RcvNxt, nil)
	sk.SndNxt++
	sk.writeQueue = append(sk.writeQueue, fin)
	sk.stack.transmit(fin.Clone())
	sk.armRetransTimer()
}

// Lock simulates a thread entering a system call that locks the socket:
// packets arriving meanwhile land on the backlog queue. The paper's
// signal-based checkpoint notification guarantees threads return to
// userspace first, so the backlog is empty during the freeze phase.
func (sk *TCPSocket) Lock() { sk.locked = true }

// Unlock releases the socket lock and processes the backlog.
func (sk *TCPSocket) Unlock() {
	sk.locked = false
	bl := sk.backlog
	sk.backlog = nil
	for _, p := range bl {
		sk.segArrived(p)
	}
}

// Locked reports the lock state (precopy socket tracking skips locked
// sockets, §V-C1).
func (sk *TCPSocket) Locked() bool { return sk.locked }

// StartRecvWait simulates a blocked reader enabling the fast-path
// prequeue; StopRecvWait drains it in process context.
func (sk *TCPSocket) StartRecvWait() { sk.readerWaiting = true }

// StopRecvWait disables the prequeue and processes deferred packets.
func (sk *TCPSocket) StopRecvWait() {
	sk.readerWaiting = false
	pq := sk.prequeue
	sk.prequeue = nil
	for _, p := range pq {
		sk.segArrived(p)
	}
}

// PrequeueBusy reports whether packets are parked on the prequeue.
func (sk *TCPSocket) PrequeueBusy() bool { return len(sk.prequeue) > 0 }

// BacklogLen returns the number of packets on the backlog queue.
func (sk *TCPSocket) BacklogLen() int { return len(sk.backlog) }

// WriteQueue, ReceiveQueue and OOOQueue expose the queues the migration
// mechanism dumps (§V-C1 states copying these three suffices because
// backlog and prequeue are empty at freeze time).
func (sk *TCPSocket) WriteQueue() []*netsim.Packet { return sk.writeQueue }

// ReceiveQueue exposes in-order received, unread segments.
func (sk *TCPSocket) ReceiveQueue() []*netsim.Packet { return sk.receiveQueue }

// OOOQueue exposes out-of-order segments awaiting the gap fill.
func (sk *TCPSocket) OOOQueue() []*netsim.Packet { return sk.oooQueue }

// SendBufLen reports unsegmented application bytes waiting for cwnd.
func (sk *TCPSocket) SendBufLen() int { return len(sk.unsent()) }

// input is the softirq receive path for a hashed socket.
func (sk *TCPSocket) input(p *netsim.Packet) {
	if sk.unhashed {
		p.Release() // cannot happen via demux; defensive
		return
	}
	if sk.locked {
		sk.backlog = append(sk.backlog, p)
		return
	}
	if sk.readerWaiting && sk.State == TCPEstablished && p.Flags&(netsim.FlagSYN|netsim.FlagFIN|netsim.FlagRST) == 0 {
		// Fast path: park on the prequeue, process in "process context"
		// (a zero-delay event standing in for the awakened reader).
		sk.prequeue = append(sk.prequeue, p)
		sk.stack.sched.AfterCall(0, "tcp.prequeue", prequeueCall, sk, nil)
		return
	}
	sk.segArrived(p)
}

// prequeueCall drains the prequeue in "process context" (a zero-delay
// event standing in for the awakened reader); closure-free because it
// fires once per fast-path segment.
func prequeueCall(a0, _ any) {
	sk := a0.(*TCPSocket)
	if sk.readerWaiting {
		sk.StopRecvWait()
		sk.StartRecvWait()
	}
}

// segArrived runs the TCP state machine on one segment. It is the
// ownership sink of the receive path: unless processData queued the
// packet on the receive or out-of-order queue, the segment's payload
// buffer goes back to the pool here.
func (sk *TCPSocket) segArrived(p *netsim.Packet) {
	if p.TSVal != 0 {
		sk.TSRecent = p.TSVal
	}
	switch sk.State {
	case TCPSynSent:
		if p.Flags&(netsim.FlagSYN|netsim.FlagACK) == netsim.FlagSYN|netsim.FlagACK && p.Ack == sk.SndNxt {
			sk.IRS = p.Seq
			sk.RcvNxt = p.Seq + 1
			sk.SndUna = p.Ack
			for i, seg := range sk.writeQueue { // SYN acknowledged
				seg.Release()
				sk.writeQueue[i] = nil
			}
			sk.writeQueue = sk.writeQueue[:0]
			sk.State = TCPEstablished
			sk.stopRetransTimer()
			sk.sendAck()
			if sk.OnReadable != nil {
				sk.OnReadable() // connection completion notification
			}
		}
		p.Release()
		return
	case TCPSynRcvd:
		if p.Flags&netsim.FlagACK != 0 && p.Ack == sk.SndNxt {
			sk.State = TCPEstablished
			sk.stopRetransTimer()
			if parent := sk.stack.bhash.get(sk.LocalPort); parent != nil && parent.State == TCPListen {
				if parent.OnAccept != nil {
					parent.OnAccept(sk)
				}
			}
			// Fall through in case the ACK carries data.
		} else {
			p.Release()
			return
		}
	}

	if p.Flags&netsim.FlagACK != 0 {
		sk.processAck(p)
	}
	// A retained packet belongs to its queue from here on, and the
	// application may drain that queue (releasing the packet) from the
	// OnReadable callback inside processData: read what the FIN check
	// needs first.
	fin, finSeq := p.Flags&netsim.FlagFIN != 0, p.Seq+uint32(len(p.Payload))
	retained := false
	if len(p.Payload) > 0 {
		retained = sk.processData(p)
	}
	if fin {
		sk.processFIN(finSeq)
	}
	if !retained {
		p.Release()
	}
}

func seqLE(a, b uint32) bool { return int32(b-a) >= 0 }
func seqLT(a, b uint32) bool { return int32(b-a) > 0 }

func (sk *TCPSocket) processAck(p *netsim.Packet) {
	if !seqLT(sk.SndUna, p.Ack) || !seqLE(p.Ack, sk.SndNxt) {
		if p.Ack == sk.SndUna && len(p.Payload) == 0 {
			// Window updates ride on duplicate ACKs too.
			sk.updateSndWnd(p)
			// A duplicate ACK for the oldest unacknowledged byte signals a
			// hole at the receiver; the third one triggers fast retransmit.
			if len(sk.writeQueue) > 0 {
				sk.dupAcks++
				if sk.dupAcks == 3 {
					sk.fastRetransmit()
				}
			}
		}
		return // old or impossible ack
	}
	sk.dupAcks = 0
	sk.updateSndWnd(p)
	// RTT sample from the echoed timestamp (jiffies difference on this
	// socket's timestamp clock; a migrated socket keeps the source node's
	// clock via TSOffset, so echoes of pre-migration segments still yield
	// valid samples here).
	if p.TSEcr != 0 {
		deltaJiffies := sk.tsNow() - p.TSEcr
		sk.updateRTT(int(deltaJiffies) * int(simtime.JiffyPeriod/1e6))
	}
	sk.SndUna = p.Ack
	sk.consecRetrans = 0 // forward progress resets the retry budget
	// Drop fully acknowledged segments from the write queue; their
	// payload buffers return to the pool (the wire only ever carried
	// clones, so the originals have no other referents).
	keep := sk.writeQueue[:0]
	for _, seg := range sk.writeQueue {
		segEnd := seg.Seq + uint32(len(seg.Payload))
		if seg.Flags&(netsim.FlagSYN|netsim.FlagFIN) != 0 {
			segEnd++
		}
		if seqLT(p.Ack, segEnd) {
			keep = append(keep, seg)
		} else {
			seg.Release()
		}
	}
	sk.writeQueue = keep
	// Congestion window growth: slow start below ssthresh, then linear.
	if sk.Cwnd < sk.Ssthresh {
		sk.Cwnd++
	} else {
		sk.Cwnd += 1 // coarse congestion avoidance: +1 per ACK batch
	}
	if len(sk.writeQueue) == 0 {
		sk.stopRetransTimer()
	} else {
		sk.armRetransTimer()
	}
	switch sk.State {
	case TCPFinWait1:
		if p.Ack == sk.SndNxt {
			sk.State = TCPFinWait2
		}
	case TCPLastAck:
		if p.Ack == sk.SndNxt {
			sk.becomeClosed()
		}
	case TCPClosing:
		if p.Ack == sk.SndNxt {
			sk.enterTimeWait()
		}
	}
	sk.pushUnsent()
}

// processData reports whether the socket retained the packet (on the
// receive or out-of-order queue); unretained packets are released by the
// caller.
func (sk *TCPSocket) processData(p *netsim.Packet) bool {
	switch {
	case p.Seq == sk.RcvNxt:
		sk.enqueueInOrder(p)
		sk.drainOOO()
		sk.sendAck()
		if sk.OnReadable != nil {
			sk.OnReadable()
		}
		return true
	case seqLT(sk.RcvNxt, p.Seq):
		retained := sk.insertOOO(p)
		sk.sendAck() // duplicate ack signals the gap
		return retained
	default:
		// Entirely old data (e.g. a retransmission that raced the ack, or
		// a captured duplicate): re-ack.
		sk.sendAck()
		return false
	}
}

func (sk *TCPSocket) enqueueInOrder(p *netsim.Packet) {
	sk.receiveQueue = append(sk.receiveQueue, p)
	sk.rcvBufUsed += len(p.Payload)
	sk.RcvNxt = p.Seq + uint32(len(p.Payload))
	sk.BytesIn += uint64(len(p.Payload))
}

// insertOOO queues an out-of-order segment, reporting whether it was
// retained (duplicates are not).
func (sk *TCPSocket) insertOOO(p *netsim.Packet) bool {
	// The queue is kept sorted, and a late segment usually belongs near
	// the tail: scan backwards for its slot.
	i := len(sk.oooQueue)
	for ; i > 0 && !seqLT(sk.oooQueue[i-1].Seq, p.Seq); i-- {
		if sk.oooQueue[i-1].Seq == p.Seq {
			return false // duplicate
		}
	}
	sk.oooQueue = append(sk.oooQueue, nil)
	copy(sk.oooQueue[i+1:], sk.oooQueue[i:])
	sk.oooQueue[i] = p
	return true
}

func (sk *TCPSocket) drainOOO() {
	for len(sk.oooQueue) > 0 && sk.oooQueue[0].Seq == sk.RcvNxt {
		q := sk.oooQueue[0]
		sk.oooQueue = sk.oooQueue[1:]
		sk.enqueueInOrder(q)
	}
	// Discard anything now stale.
	keep := sk.oooQueue[:0]
	for _, q := range sk.oooQueue {
		if seqLT(sk.RcvNxt, q.Seq+uint32(len(q.Payload))) {
			keep = append(keep, q)
		} else {
			q.Release()
		}
	}
	sk.oooQueue = keep
}

func (sk *TCPSocket) processFIN(finSeq uint32) {
	if finSeq != sk.RcvNxt {
		return // FIN out of order; wait for retransmission
	}
	sk.RcvNxt++
	sk.eof = true
	sk.sendAck()
	switch sk.State {
	case TCPEstablished:
		sk.State = TCPCloseWait
	case TCPFinWait1:
		sk.State = TCPClosing
	case TCPFinWait2:
		sk.enterTimeWait()
	}
	if sk.OnReadable != nil {
		sk.OnReadable()
	}
}

func (sk *TCPSocket) enterTimeWait() {
	sk.State = TCPTimeWait
	sk.stopRetransTimer()
	sk.stack.sched.AfterCall(TimeWaitDelay, "tcp.timewait", timeWaitCall, sk, nil)
}

// timeWaitCall ends TIME_WAIT (closure-free: every orderly close of a
// connection passes through it).
func timeWaitCall(a0, _ any) {
	if sk := a0.(*TCPSocket); sk.State == TCPTimeWait {
		sk.becomeClosed()
	}
}

func (sk *TCPSocket) becomeClosed() {
	sk.State = TCPClosed
	sk.stopRetransTimer()
	if !sk.unhashed {
		sk.stack.ehash.del(sk.ekey())
		if sk.ownsBind && sk.stack.bhash.get(sk.LocalPort) == sk {
			sk.stack.bhash.set(sk.LocalPort, nil)
		}
	}
}

// updateSndWnd adopts the peer's advertised window and restarts stalled
// transmission when it reopens.
func (sk *TCPSocket) updateSndWnd(p *netsim.Packet) {
	sk.SndWnd = uint32(p.Window)
	if sk.SndWnd > 0 && len(sk.unsent()) > 0 {
		sk.pushUnsent()
	}
}

// push is the one segmenting loop: it cuts src into segments of at most
// MSS bytes and transmits them while both the congestion window and the
// peer's receive window allow, and returns what they refused. src is the
// caller's slice (Send) or the send buffer (pushUnsent); each segment's
// bytes are copied into a pooled payload before it is transmitted, and
// transmission ends in a scheduled NIC event, so nothing can re-enter the
// loop while it holds src.
func (sk *TCPSocket) push(src []byte) (rest []byte) {
	for len(src) > 0 && uint32(len(sk.writeQueue)) < sk.Cwnd {
		n := min(len(src), sk.MSS)
		if sk.SndNxt-sk.SndUna+uint32(n) > sk.SndWnd {
			// Receiver-limited: stop and arm the persist timer so a lost
			// window update cannot deadlock the connection.
			sk.ensurePersistTimer()
			break
		}
		sk.emit(src[:n])
		src = src[n:]
	}
	if len(sk.writeQueue) > 0 {
		sk.ensureRetransTimer()
	}
	return src
}

// pushUnsent runs push over the send buffer (the ACK, window-update and
// persist paths: room may have opened for bytes an earlier Send left).
func (sk *TCPSocket) pushUnsent() {
	u := sk.unsent()
	sk.segmented(len(u) - len(sk.push(u)))
}

// emit builds one data segment out of b at SndNxt, queues it for
// retransmission and puts a clone on the wire.
func (sk *TCPSocket) emit(b []byte) {
	payload := sk.stack.pool.GetPayload(len(b))
	copy(payload, b)
	seg := sk.makePacket(netsim.FlagACK|netsim.FlagPSH, sk.SndNxt, sk.RcvNxt, payload)
	sk.SndNxt += uint32(len(b))
	sk.writeQueue = append(sk.writeQueue, seg)
	sk.stack.transmit(seg.Clone())
}

// ensurePersistTimer arms the zero-window probe.
func (sk *TCPSocket) ensurePersistTimer() {
	if sk.persistTimer == nil {
		sk.persistTimer = sk.stack.sched.AfterCall(PersistInterval, "tcp.persist", persistCall, sk, nil)
	}
}

// persistCall is the closure-free persist-timer trampoline (as rtoCall).
func persistCall(a0, _ any) { a0.(*TCPSocket).onPersistTimeout() }

// onPersistTimeout sends a window probe when the peer's window still
// refuses the next segment: a single byte pushed past the window. The
// receiver acknowledges it with its current window, which either reopens
// transmission or re-arms the probe.
func (sk *TCPSocket) onPersistTimeout() {
	sk.persistTimer = nil
	if sk.unhashed || sk.State != TCPEstablished {
		return
	}
	u := sk.unsent()
	if next := min(len(u), sk.MSS); next > 0 && sk.SndNxt-sk.SndUna+uint32(next) > sk.SndWnd {
		sk.emit(u[:1])
		sk.segmented(1)
		sk.ensureRetransTimer()
		sk.ensurePersistTimer()
	}
}

func (sk *TCPSocket) sendAck() {
	if sk.unhashed {
		return
	}
	ack := sk.makePacket(netsim.FlagACK, sk.SndNxt, sk.RcvNxt, nil)
	sk.stack.transmit(ack)
}

// advertisedWindow is the free receive-buffer space this socket announces.
func (sk *TCPSocket) advertisedWindow() uint16 {
	free := sk.RcvBufMax - sk.rcvBufUsed
	if free < 0 {
		free = 0
	}
	if free > 65535 {
		free = 65535
	}
	return uint16(free)
}

// tsNow is the socket's timestamp clock: node jiffies shifted by the
// per-socket offset a migration installs (zero on sockets born here).
func (sk *TCPSocket) tsNow() uint32 { return sk.stack.Jiffies() + sk.TSOffset }

// makePacket stamps identity, timestamps, the advertised window and the
// destination cache entry onto a new segment.
func (sk *TCPSocket) makePacket(flags byte, seq, ack uint32, payload []byte) *netsim.Packet {
	sk.LastTxJiffies = sk.tsNow()
	p := sk.stack.pool.NewPacket()
	p.SrcIP, p.DstIP, p.Proto, p.TTL = sk.LocalIP, sk.RemoteIP, netsim.ProtoTCP, 64
	p.SrcPort, p.DstPort = sk.LocalPort, sk.RemotePort
	p.Seq, p.Ack, p.Flags, p.Window = seq, ack, flags, sk.advertisedWindow()
	p.TSVal, p.TSEcr = sk.LastTxJiffies, sk.TSRecent
	p.Payload = payload
	p.Dst = sk.dst
	p.Trace = sk.Trace
	p.Class = sk.Class
	p.FixChecksum()
	return p
}

func (sk *TCPSocket) updateRTT(sampleMs int) {
	// Reject negative samples and samples beyond the RTO ceiling: the
	// latter can only come from a timestamp echo on a foreign clock
	// (e.g. a peer echoing a pre-migration TSVal when the offsets are
	// misconfigured) and would otherwise poison SRTT for good.
	if sampleMs < 0 || sampleMs > int(MaxRTO/1e6) {
		return
	}
	if sk.SRTTms == 0 {
		sk.SRTTms = sampleMs
		sk.RTTVarms = sampleMs / 2
	} else {
		diff := sampleMs - sk.SRTTms
		if diff < 0 {
			diff = -diff
		}
		sk.RTTVarms = (3*sk.RTTVarms + diff) / 4
		sk.SRTTms = (7*sk.SRTTms + sampleMs) / 8
	}
	sk.RTOms = sk.SRTTms + 4*sk.RTTVarms
	if min := int(sk.rtoFloor() / 1e6); sk.RTOms < min {
		sk.RTOms = min
	}
}

// rtoFloor is the lowest retransmission timeout the socket arms: RTOMin
// when set, MinRTO otherwise.
func (sk *TCPSocket) rtoFloor() simtime.Duration {
	if sk.RTOMin > 0 {
		return sk.RTOMin
	}
	return MinRTO
}

// armRetransTimer (re)starts the retransmission timer for the head of the
// write queue. RestartRetransTimer is the restore-side entry (§V-C1:
// "the retransmission timer is restarted").
func (sk *TCPSocket) armRetransTimer() {
	sk.stopRetransTimer()
	rto := simtime.Duration(sk.RTOms) * 1e6
	if floor := sk.rtoFloor(); rto < floor {
		rto = floor
	}
	if rto > MaxRTO {
		rto = MaxRTO
	}
	sk.rtoPending = true
	sk.retransTimer = sk.stack.sched.AfterCall(rto, "tcp.rto", rtoCall, sk, nil)
}

// rtoCall is the closure-free retransmission-timeout trampoline: arming
// the timer per ACK batch must not allocate a method-value closure.
func rtoCall(a0, _ any) { a0.(*TCPSocket).onRetransTimeout() }

// ensureRetransTimer arms the timer only when none is pending: sending
// fresh segments must not keep pushing the timeout of the oldest
// unacknowledged one into the future.
func (sk *TCPSocket) ensureRetransTimer() {
	if !sk.rtoPending {
		sk.armRetransTimer()
	}
}

// RestartRetransTimer is called after a socket is restored on the
// destination node.
func (sk *TCPSocket) RestartRetransTimer() {
	if len(sk.writeQueue) > 0 {
		sk.stack.Stats.RTOResets++
		sk.armRetransTimer()
	}
}

func (sk *TCPSocket) stopRetransTimer() {
	sk.rtoPending = false
	if sk.retransTimer != nil {
		sk.stack.sched.Cancel(sk.retransTimer)
		sk.retransTimer = nil
	}
}

// fastRetransmit resends the head of the write queue immediately after
// three duplicate ACKs, with the multiplicative window reduction of NewReno
// (simplified: no partial-ack bookkeeping).
func (sk *TCPSocket) fastRetransmit() {
	if sk.unhashed || len(sk.writeQueue) == 0 {
		return
	}
	sk.FastRetransmits++
	sk.stack.Stats.FastRetransmits++
	inflight := uint32(len(sk.writeQueue))
	sk.Ssthresh = inflight / 2
	if sk.Ssthresh < 2 {
		sk.Ssthresh = 2
	}
	sk.Cwnd = sk.Ssthresh
	head := sk.writeQueue[0]
	re := head.Clone()
	re.Ack = sk.RcvNxt
	re.TSVal = sk.tsNow()
	re.TSEcr = sk.TSRecent
	re.Dst = sk.dst
	re.FixChecksum()
	sk.stack.transmit(re)
	sk.armRetransTimer()
}

func (sk *TCPSocket) onRetransTimeout() {
	sk.rtoPending = false
	sk.retransTimer = nil // the firing event is dead; drop the reference
	if sk.unhashed || len(sk.writeQueue) == 0 {
		return
	}
	sk.consecRetrans++
	if sk.consecRetrans > MaxConsecRetrans {
		sk.abortConn()
		return
	}
	sk.Retransmits++
	sk.stack.Stats.Retransmits++
	// Multiplicative backoff and window collapse.
	sk.RTOms *= 2
	if max := int(MaxRTO / 1e6); sk.RTOms > max {
		sk.RTOms = max
	}
	inflight := uint32(len(sk.writeQueue))
	sk.Ssthresh = inflight / 2
	if sk.Ssthresh < 2 {
		sk.Ssthresh = 2
	}
	sk.Cwnd = 1
	head := sk.writeQueue[0]
	re := head.Clone()
	re.Ack = sk.RcvNxt
	re.TSVal = sk.tsNow()
	re.TSEcr = sk.TSRecent
	re.Dst = sk.dst
	re.FixChecksum()
	sk.stack.transmit(re)
	sk.armRetransTimer()
}

// abortConn tears the connection down after the retransmission budget is
// exhausted (the kernel would surface ETIMEDOUT). Pending queues release
// their buffers, pending timers die, and the application observes EOF.
func (sk *TCPSocket) abortConn() {
	sk.TimedOut = true
	for _, seg := range sk.writeQueue {
		seg.Release()
	}
	sk.writeQueue = nil
	for _, q := range sk.oooQueue {
		q.Release()
	}
	sk.oooQueue = nil
	sk.sndBuf, sk.sndOff, sk.ahead = nil, 0, 0
	if sk.persistTimer != nil {
		sk.stack.sched.Cancel(sk.persistTimer)
		sk.persistTimer = nil
	}
	sk.eof = true
	sk.becomeClosed()
	if sk.OnReadable != nil {
		sk.OnReadable() // deliver the EOF notification
	}
}

// --- Migration support -------------------------------------------------

// Unhash removes the socket from the ehash and bhash tables and clears
// the retransmission timer of the write queue: the first step of TCP
// socket migration (§V-C1). The socket stops receiving and sending.
func (sk *TCPSocket) Unhash() {
	if sk.unhashed {
		return
	}
	sk.stack.ehash.del(sk.ekey())
	if sk.ownsBind && sk.stack.bhash.get(sk.LocalPort) == sk {
		sk.stack.bhash.set(sk.LocalPort, nil)
	}
	sk.stopRetransTimer()
	if sk.persistTimer != nil {
		sk.stack.sched.Cancel(sk.persistTimer)
		sk.persistTimer = nil
	}
	sk.unhashed = true
}

// Rehash inserts the socket into the lookup tables of its (possibly new)
// stack; the final restore step before the retransmission timer restart.
func (sk *TCPSocket) Rehash() error {
	if !sk.unhashed {
		return errors.New("netstack: rehash of a hashed socket")
	}
	st := sk.stack
	if sk.State == TCPListen {
		if st.bhash.get(sk.LocalPort) != nil {
			return fmt.Errorf("netstack %s: port %d already bound", st.Name, sk.LocalPort)
		}
		st.bhash.set(sk.LocalPort, sk)
		sk.ownsBind = true
		sk.unhashed = false
		return nil
	}
	if st.ehash.get(sk.ekey()) != nil {
		return fmt.Errorf("netstack %s: tuple %v already hashed", st.Name, sk.Tuple())
	}
	st.ehash.put(sk)
	if st.bhash.get(sk.LocalPort) == nil {
		st.bhash.set(sk.LocalPort, sk)
		sk.ownsBind = true
	} else {
		sk.ownsBind = false
	}
	sk.unhashed = false
	return nil
}

// Unhashed reports migration-disabled state.
func (sk *TCPSocket) Unhashed() bool { return sk.unhashed }

// AdoptStack rebinds the socket to a new node's stack and refreshes its
// destination cache entry there. Called by restore.
func (sk *TCPSocket) AdoptStack(st *Stack) error {
	sk.stack = st
	d, err := st.DstFor(sk.RemoteIP)
	if err != nil {
		return err
	}
	sk.dst = d
	return nil
}

// InjectArrived lets the capture module feed a reinjected packet straight
// into the state machine (used after Reinject demux found the socket).
func (sk *TCPSocket) InjectArrived(p *netsim.Packet) { sk.segArrived(p) }
