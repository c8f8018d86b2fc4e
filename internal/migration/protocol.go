// Package migration is the live-migration engine: the migd daemon and
// mig_mod kernel-module equivalent. It drives the precopy loop of Fig 3,
// orchestrates incoming-packet-loss prevention (capture), local address
// translation for in-cluster connections, the three socket migration
// strategies, the freeze-phase transfer and the destination-side restore,
// and reports the metrics the evaluation section plots.
package migration

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dvemig/internal/netstack"
	"dvemig/internal/wire"
)

// MigdPort is the TCP port migration daemons listen on (in-cluster
// interface).
const MigdPort = 7801

// MsgType identifies a migd protocol message.
type MsgType byte

// Protocol messages, in rough flow order. The type byte travels on the
// wire, so a slot is never reused: 3, 7 and 10 carried the monolithic
// checkpoint messages (MEM_DELTA, FREEZE, POST_IMAGE) that chunk streams
// replaced, and a peer that still sends one is answered like any other
// unknown type.
const (
	MsgMigrateReq  MsgType = iota + 1 // S→D: open a migration
	MsgMigrateAck                     // D→S: accepted
	_                                 // 3: retired
	MsgSockDelta                      // S→D: socket updates (precopy or freeze)
	MsgCaptureReq                     // S→D: enable capture filters
	MsgCaptureAck                     // D→S: filters active
	_                                 // 7: retired
	MsgRestoreDone                    // D→S: process resumed
	MsgAbort                          // either direction

	// Post-copy page-pull protocol (PR 6).
	_            // 10: retired
	MsgResumed   // D→S: process resumed with holes; downtime ends here
	MsgPageReq   // D→S: demand pull for faulted pages (epoch-fenced)
	MsgPageResp  // S→D: page content (demand reply or prefetch push)
	MsgPullsDone // D→S: last hole filled; the source may dismantle

	// Chunked checkpoint streams (PR 8). Every checkpoint payload — a
	// precopy memory delta, the final image of either kind — is split
	// into bounded MsgChunk frames closed by a MsgChunkEnd trailer, so
	// serialization and link transfer overlap instead of one monolithic
	// message stalling the pipeline.
	MsgChunk    // S→D: one bounded frame of a chunked checkpoint payload
	MsgChunkEnd // S→D: stream trailer — kind, frame count, total bytes
)

// msgNames is indexed by type byte; a retired or unassigned slot is "".
var msgNames = [...]string{
	MsgMigrateReq: "MIGRATE_REQ", MsgMigrateAck: "MIGRATE_ACK",
	MsgSockDelta:  "SOCK_DELTA",
	MsgCaptureReq: "CAPTURE_REQ", MsgCaptureAck: "CAPTURE_ACK",
	MsgRestoreDone: "RESTORE_DONE", MsgAbort: "ABORT",
	MsgResumed: "RESUMED",
	MsgPageReq: "PAGE_REQ", MsgPageResp: "PAGE_RESP", MsgPullsDone: "PULLS_DONE",
	MsgChunk: "CHUNK", MsgChunkEnd: "CHUNK_END",
}

// String names the message type.
func (t MsgType) String() string {
	if int(t) < len(msgNames) && msgNames[t] != "" {
		return msgNames[t]
	}
	return fmt.Sprintf("MSG(%d)", byte(t))
}

// Conn frames migd messages over a simulated TCP connection.
//
// Frame bytes are lent, not handed over: the connection owns one receive
// buffer, a frame's payload aliases it and is valid only until the
// owner's frame method returns. An owner that keeps any of it must copy
// (DESIGN.md §11, "Frame bytes").
type Conn struct {
	sk *netstack.TCPSocket
	// buf holds the received stream bytes not yet dispatched. nil while
	// the connection holds no buffer (before the first byte, and after
	// the buffer went back to bufs).
	buf []byte
	// bufs is the free list buf is drawn from and, when smaller than the
	// wire pool's buffers, returned to (the Migrator's; nil for a
	// connection outside one, whose small buffer is left to the
	// collector).
	bufs *bufList
	// owner receives each complete frame and, once, the hang-up; nil
	// discards both (a guardian never reads its acks).
	owner connOwner
	// gen is the dial generation of the attempt this connection is: an
	// owner that dials more than once (the source's retries) ignores
	// whatever a superseded attempt still delivers.
	gen int

	// BytesSent counts framed payload bytes, for metrics.
	BytesSent uint64

	// closed: Close was called. draining: drain is dispatching, so buf
	// must stay put until it is done. broken: a header declared a frame
	// above maxFrameBytes, so the frame boundaries are lost for good and
	// whatever else arrives is discarded. hungUp: the owner has been told
	// nothing more will arrive.
	closed   bool
	draining bool
	broken   bool
	hungUp   bool

	// hdr is the frame-header scratch; the transport copies what Send
	// hands it synchronously, so one buffer per connection suffices.
	hdr [frameHdrBytes]byte
}

// frameHdrBytes is what every frame carries ahead of its payload: the
// type byte and the u32 payload length.
const frameHdrBytes = 5

// connOwner is the one party a Conn delivers to: every complete frame
// (payload lent, see Conn), then once the hang-up — the peer closed, the
// connection died, or a header broke the framing. The outbound, the
// inbound and the standby are owners; each method gets the connection,
// so one owner value serves every connection it holds.
type connOwner interface {
	frame(c *Conn, t MsgType, payload []byte)
	closed(c *Conn)
}

// connDialer is an owner that opened the connection itself: it also
// hears every readiness notification after the frames it carried, which
// is how it learns the handshake completed.
type connDialer interface {
	connOwner
	readable(c *Conn)
}

// bufList is a free list of receive buffers. A simulation cell is
// single-threaded and a Migrator belongs to one cell, so a plain stack
// does what a sync.Pool would, without its per-P machinery.
type bufList struct{ free [][]byte }

// maxKeptBuf bounds what put keeps: a buffer that grew to hold a
// thousand-socket delta or a backlog of queued chunk frames is not
// worth pinning for the Migrator's lifetime. It also bounds what a
// frame header alone makes Conn.reserve set aside.
const maxKeptBuf = 1 << 20

func (l *bufList) get() []byte {
	if l == nil || len(l.free) == 0 {
		return nil
	}
	n := len(l.free) - 1
	b := l.free[n]
	l.free[n] = nil
	l.free = l.free[:n]
	return b
}

func (l *bufList) put(b []byte) {
	if l != nil && cap(b) > 0 && cap(b) <= maxKeptBuf {
		l.free = append(l.free, b[:0])
	}
}

// poisonLent is the lend-contract tripwire: when set, every lent payload
// is overwritten the moment its handler returns, so a handler that kept
// a reference reads garbage at once instead of whenever the buffer is
// next reused. Only tests set it (export_test.go).
var poisonLent bool

// newConn wraps an (established or establishing) TCP socket for owner,
// drawing receive buffers from bufs (nil: the collector's). The socket's
// readiness callback is the connection's, installed here and nowhere
// else.
func newConn(sk *netstack.TCPSocket, owner connOwner, bufs *bufList) *Conn {
	c := &Conn{sk: sk, owner: owner, bufs: bufs}
	sk.OnReadable = c.onReadable
	return c
}

// Socket exposes the underlying transport socket.
func (c *Conn) Socket() *netstack.TCPSocket { return c.sk }

// Send transmits one framed message: type byte + u32 length + payload.
func (c *Conn) Send(t MsgType, payload []byte) error {
	return c.Send2(t, payload, nil)
}

// Send2 transmits one framed message whose payload is the concatenation
// head||tail, without gluing the parts into a temporary buffer. The
// chunk sender uses it to prepend a small frame header to a slice of a
// larger encode buffer.
func (c *Conn) Send2(t MsgType, head, tail []byte) error {
	n := len(head) + len(tail)
	if n > maxFrameBytes {
		return fmt.Errorf("migration: %s frame of %d bytes exceeds the %d-byte frame bound", t, n, maxFrameBytes)
	}
	c.hdr[0] = byte(t)
	binary.BigEndian.PutUint32(c.hdr[1:], uint32(n))
	c.BytesSent += uint64(n) + frameHdrBytes
	if err := c.sk.Send(c.hdr[:]); err != nil {
		return err
	}
	if len(head) > 0 {
		if err := c.sk.Send(head); err != nil {
			return err
		}
	}
	if len(tail) > 0 {
		return c.sk.Send(tail)
	}
	return nil
}

func (c *Conn) onReadable() {
	if len(c.sk.ReceiveQueue()) > 0 {
		c.buf = c.sk.RecvAppend(c.recvBuf())
	}
	c.drain()
	if c.sk.EOF() {
		c.hangup()
	}
	if d, ok := c.owner.(connDialer); ok {
		d.readable(c)
	}
}

// hangup tells the owner, once, that nothing more will arrive.
func (c *Conn) hangup() {
	if !c.hungUp {
		c.hungUp = true
		if c.owner != nil {
			c.owner.closed(c)
		}
	}
}

// feed appends raw stream bytes and drains every complete frame. It is
// the transport-independent half of the parser (also the fuzz surface).
func (c *Conn) feed(data []byte) {
	c.buf = append(c.recvBuf(), data...)
	c.drain()
}

// recvBuf is the buffer to append received bytes to, drawn from the
// free list when the connection holds none.
func (c *Conn) recvBuf() []byte {
	if c.buf == nil {
		return c.bufs.get()
	}
	return c.buf
}

// drain dispatches every complete frame at the head of the buffer,
// lending each payload to the owner in place, then moves what is left (a
// partial frame, usually nothing) to the front so the buffer never
// creeps. A handler that closes the connection does not stop the
// dispatch: frames already received behind it are still delivered.
//
// A header declaring more than maxFrameBytes is not waited for — no
// legal frame is that large, and buffering toward it is how a five-byte
// header would pin gigabytes. The connection is closed on the spot and
// the owner cleans up through its closed method, as if the peer had hung
// up.
func (c *Conn) drain() {
	c.draining = true
	off := 0
	for !c.broken && len(c.buf)-off >= 5 {
		n := int(binary.BigEndian.Uint32(c.buf[off+1 : off+5]))
		if n > maxFrameBytes {
			c.broken = true
			break
		}
		if len(c.buf)-off < 5+n {
			break
		}
		t := MsgType(c.buf[off])
		// Capacity-clipped: an append by the handler reallocates instead
		// of running into the next frame.
		payload := c.buf[off+5 : off+5+n : off+5+n]
		off += 5 + n
		if c.owner != nil {
			c.owner.frame(c, t, payload)
		}
		if poisonLent {
			for i := range payload {
				payload[i] = 0xDB
			}
		}
	}
	c.draining = false
	if c.broken {
		// Everything buffered, now or on a later call, is discarded.
		c.buf = c.buf[:0]
		c.Close()
		c.hangup()
		return
	}
	if off > 0 {
		c.buf = c.buf[:copy(c.buf, c.buf[off:])]
	}
	c.reserve()
	c.recycle()
}

// reserve grows the buffer once to hold the whole partial frame at its
// front, as soon as the frame's header is in: a frame arriving one
// segment at a time then never regrows the buffer. The reservation
// stops at maxKeptBuf, so a header alone pins at most that much; a
// larger frame grows by append from there.
func (c *Conn) reserve() {
	if len(c.buf) < 5 {
		return
	}
	need := min(5+int(binary.BigEndian.Uint32(c.buf[1:5])), maxKeptBuf)
	if need > cap(c.buf) {
		c.buf = wire.Grow(c.buf, need-len(c.buf))
	}
}

// recycle hands the receive buffer back once nothing more will be
// parsed out of it: it is empty, and either this side closed or the
// peer's EOF arrived. The second case is the common one on the
// destination, which never calls Close on the success path. A buffer of
// a pooled size goes to the wire pool, where the next migration's
// reserve finds it whichever cell runs it; a smaller one to bufs. Should
// bytes turn up after all, onReadable simply draws a buffer again.
func (c *Conn) recycle() {
	if c.buf != nil && len(c.buf) == 0 && !c.draining && (c.closed || c.sk.EOF()) {
		if !wire.Give(c.buf) {
			c.bufs.put(c.buf)
		}
		c.buf = nil
	}
}

// Close shuts the transport down.
func (c *Conn) Close() {
	c.closed = true
	c.sk.Close()
	c.recycle()
}

// errAborted signals a migration aborted by the peer.
var errAborted = errors.New("migration: aborted by peer")
