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
)

// MigdPort is the TCP port migration daemons listen on (in-cluster
// interface).
const MigdPort = 7801

// MsgType identifies a migd protocol message.
type MsgType byte

// Protocol messages, in rough flow order.
const (
	MsgMigrateReq  MsgType = iota + 1 // S→D: open a migration
	MsgMigrateAck                     // D→S: accepted
	MsgMemDelta                       // S→D: one precopy round of memory
	MsgSockDelta                      // S→D: socket updates (precopy or freeze)
	MsgCaptureReq                     // S→D: enable capture filters
	MsgCaptureAck                     // D→S: filters active
	MsgFreeze                         // S→D: final state (mem, threads, fds)
	MsgRestoreDone                    // D→S: process resumed
	MsgAbort                          // either direction

	// Post-copy page-pull protocol (PR 6).
	MsgPostImage // S→D: minimal freeze image + page directory, no page data
	MsgResumed   // D→S: process resumed with holes; downtime ends here
	MsgPageReq   // D→S: demand pull for faulted pages (epoch-fenced)
	MsgPageResp  // S→D: page content (demand reply or prefetch push)
	MsgPullsDone // D→S: last hole filled; the source may dismantle

	// Chunked checkpoint streams (PR 8). Large checkpoint payloads —
	// precopy memory deltas, the freeze image, post-copy's directory
	// image — are split into bounded MsgChunk frames closed by a
	// MsgChunkEnd trailer, so serialization and link transfer overlap
	// instead of one monolithic message stalling the pipeline.
	MsgChunk    // S→D: one bounded frame of a chunked checkpoint payload
	MsgChunkEnd // S→D: stream trailer — kind, frame count, total bytes
)

// String names the message type.
func (t MsgType) String() string {
	names := map[MsgType]string{
		MsgMigrateReq: "MIGRATE_REQ", MsgMigrateAck: "MIGRATE_ACK",
		MsgMemDelta: "MEM_DELTA", MsgSockDelta: "SOCK_DELTA",
		MsgCaptureReq: "CAPTURE_REQ", MsgCaptureAck: "CAPTURE_ACK",
		MsgFreeze: "FREEZE", MsgRestoreDone: "RESTORE_DONE", MsgAbort: "ABORT",
		MsgPostImage: "POST_IMAGE", MsgResumed: "RESUMED",
		MsgPageReq: "PAGE_REQ", MsgPageResp: "PAGE_RESP", MsgPullsDone: "PULLS_DONE",
		MsgChunk: "CHUNK", MsgChunkEnd: "CHUNK_END",
	}
	if s, ok := names[t]; ok {
		return s
	}
	return fmt.Sprintf("MSG(%d)", byte(t))
}

// Conn frames migd messages over a simulated TCP connection.
type Conn struct {
	sk  *netstack.TCPSocket
	buf []byte
	// OnMsg receives each complete message.
	OnMsg func(t MsgType, payload []byte)
	// OnClose fires when the peer closes or the connection dies.
	OnClose func()

	// BytesSent counts framed payload bytes, for metrics.
	BytesSent uint64

	// hdr is the frame-header scratch; the transport copies what Send
	// hands it synchronously, so one buffer per connection suffices.
	hdr [5]byte
}

// NewConn wraps an (established or establishing) TCP socket.
func NewConn(sk *netstack.TCPSocket) *Conn {
	c := &Conn{sk: sk}
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
	c.hdr[0] = byte(t)
	binary.BigEndian.PutUint32(c.hdr[1:], uint32(n))
	c.BytesSent += uint64(n) + 5
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
	c.buf = c.sk.RecvAppend(c.buf)
	c.drain()
	if c.sk.EOF() && c.OnClose != nil {
		cb := c.OnClose
		c.OnClose = nil
		cb()
	}
}

// feed appends raw stream bytes and drains every complete frame. It is
// the transport-independent half of the parser (also the fuzz surface).
func (c *Conn) feed(data []byte) {
	c.buf = append(c.buf, data...)
	c.drain()
}

// drain dispatches every complete frame at the head of the buffer.
func (c *Conn) drain() {
	for {
		if len(c.buf) < 5 {
			break
		}
		n := int(binary.BigEndian.Uint32(c.buf[1:5]))
		if len(c.buf) < 5+n {
			break
		}
		t := MsgType(c.buf[0])
		payload := append([]byte(nil), c.buf[5:5+n]...)
		c.buf = c.buf[5+n:]
		if c.OnMsg != nil {
			c.OnMsg(t, payload)
		}
	}
}

// Close shuts the transport down.
func (c *Conn) Close() { c.sk.Close() }

// errAborted signals a migration aborted by the peer.
var errAborted = errors.New("migration: aborted by peer")
