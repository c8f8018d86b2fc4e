package xlat

import (
	"encoding/binary"
	"fmt"

	"dvemig/internal/netsim"
	"dvemig/internal/netstack"
	"dvemig/internal/simtime"
	"dvemig/internal/wire"
)

// TransdPort is the UDP port the translation daemon listens on, on every
// node's in-cluster interface.
const TransdPort = 7077

// Wire opcodes.
const (
	opAdd    = 1
	opRemove = 2
	opAck    = 3
	opNak    = 4
)

// Transd is the user-level translation daemon (§II-B): it receives
// address-translation requests from migrating nodes and consults the
// "kernel" (the Translator) to install the appropriate filters.
type Transd struct {
	stack *netstack.Stack
	xl    *Translator
	sock  *netstack.UDPSocket

	// Requests counts handled messages, for tests and monitoring.
	Requests uint64
}

// StartTransd launches the daemon on a node's stack, bound to its
// in-cluster address.
func StartTransd(st *netstack.Stack, localIP netsim.Addr) (*Transd, error) {
	d := &Transd{stack: st, xl: NewTranslator(st)}
	d.sock = netstack.NewUDPSocket(st)
	if err := d.sock.Bind(localIP, TransdPort); err != nil {
		return nil, fmt.Errorf("transd: %w", err)
	}
	d.sock.OnReadable = d.serve
	return d, nil
}

// Translator exposes the daemon's filter table.
func (d *Transd) Translator() *Translator { return d.xl }

func (d *Transd) serve() {
	for {
		dg, ok := d.sock.Recv()
		if !ok {
			return
		}
		d.Requests++
		op, reqID, rule, err := decodeRequest(dg.Payload)
		resp := byte(opAck)
		if err != nil {
			resp = opNak
		} else {
			switch op {
			case opAdd:
				if err := d.xl.Install(rule); err != nil {
					resp = opNak
				}
			case opRemove:
				d.xl.Remove(rule)
			default:
				resp = opNak
			}
		}
		ack := make([]byte, 5)
		ack[0] = resp
		binary.BigEndian.PutUint32(ack[1:], reqID)
		_ = d.sock.SendTo(dg.SrcIP, dg.SrcPort, ack)
	}
}

func encodeRequest(op byte, reqID uint32, r Rule) []byte {
	b := make([]byte, 26)
	b[0] = op
	binary.BigEndian.PutUint32(b[1:], reqID)
	b[5] = r.Proto
	binary.BigEndian.PutUint32(b[6:], uint32(r.OldAddr))
	binary.BigEndian.PutUint32(b[10:], uint32(r.NewAddr))
	binary.BigEndian.PutUint16(b[14:], r.LocalPort)
	binary.BigEndian.PutUint16(b[16:], r.RemotePort)
	binary.BigEndian.PutUint64(b[18:], r.Epoch)
	return b
}

func decodeRequest(b []byte) (op byte, reqID uint32, rule Rule, err error) {
	r := wire.NewReader(b)
	op, reqID = r.U8(), r.U32()
	rule = Rule{
		Proto:      r.U8(),
		OldAddr:    netsim.Addr(r.U32()),
		NewAddr:    netsim.Addr(r.U32()),
		LocalPort:  r.U16(),
		RemotePort: r.U16(),
		Epoch:      r.U64(),
	}
	if r.Err() != nil {
		return 0, 0, Rule{}, r.Err()
	}
	return op, reqID, rule, nil
}

// Client issues translation requests to remote transd daemons with
// retries, used by the migration engine for in-cluster connections.
type Client struct {
	stack *netstack.Stack
	sock  *netstack.UDPSocket
	sched *simtime.Scheduler

	nextReq uint32
	pending map[uint32]*pendingReq
}

type pendingReq struct {
	payload []byte
	peer    netsim.Addr
	tries   int
	timer   *simtime.Event
	done    func(error)
}

// NewClient creates a requester bound to an ephemeral port on the node's
// in-cluster address.
func NewClient(st *netstack.Stack, localIP netsim.Addr) *Client {
	c := &Client{stack: st, sched: st.Scheduler(), pending: make(map[uint32]*pendingReq)}
	c.sock = netstack.NewUDPSocket(st)
	c.sock.BindEphemeral(localIP)
	c.sock.OnReadable = c.handleAcks
	return c
}

const (
	clientRetries = 4
	clientTimeout = 100 * simtime.Duration(1e6) // 100ms
)

// Request asks the transd on peer to add (add=true) or remove a rule;
// done fires with nil on ack, an error on nak or timeout.
func (c *Client) Request(peer netsim.Addr, add bool, r Rule, done func(error)) {
	op := byte(opRemove)
	if add {
		op = opAdd
	}
	c.nextReq++
	id := c.nextReq
	pr := &pendingReq{payload: encodeRequest(op, id, r), peer: peer, done: done}
	c.pending[id] = pr
	c.sendAttempt(id, pr)
}

func (c *Client) sendAttempt(id uint32, pr *pendingReq) {
	pr.tries++
	_ = c.sock.SendTo(pr.peer, TransdPort, pr.payload)
	pr.timer = c.sched.After(clientTimeout, "transd.retry", func() {
		pr.timer = nil // fired; the event pointer is dead
		if _, live := c.pending[id]; !live {
			return
		}
		if pr.tries >= clientRetries {
			delete(c.pending, id)
			if pr.done != nil {
				pr.done(fmt.Errorf("transd: no answer from %s after %d tries", pr.peer, pr.tries))
			}
			return
		}
		c.sendAttempt(id, pr)
	})
}

func (c *Client) handleAcks() {
	for {
		dg, ok := c.sock.Recv()
		if !ok {
			return
		}
		r := wire.NewReader(dg.Payload)
		resp, id := r.U8(), r.U32()
		if r.Err() != nil {
			continue
		}
		pr, live := c.pending[id]
		if !live {
			continue
		}
		delete(c.pending, id)
		c.sched.Cancel(pr.timer)
		pr.timer = nil
		var err error
		if resp == opNak {
			err = fmt.Errorf("transd: peer %s rejected request", dg.SrcIP)
		}
		if pr.done != nil {
			pr.done(err)
		}
	}
}

// Outstanding reports in-flight requests (for tests).
func (c *Client) Outstanding() int { return len(c.pending) }
