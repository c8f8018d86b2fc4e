package netstack

import (
	"fmt"

	"dvemig/internal/netsim"
)

// Datagram is one received UDP message together with its source.
//
// Recv lends Payload: it is the arriving packet's own buffer, valid until
// the next Recv or Close on the socket, and read-only (sibling clones on
// other nodes share it). A caller that keeps the bytes longer copies them.
type Datagram struct {
	SrcIP   netsim.Addr
	SrcPort uint16
	TSVal   uint32 // sender jiffies, adjusted on migration like TCP buffers
	Payload []byte
}

// UDPSocket models a UDP server socket bound to a local port. Migrating
// one means unhashing it, transferring the main structure plus the
// receive-queue buffers, and rehashing on the destination (§V-C2).
type UDPSocket struct {
	stack *Stack

	LocalIP   netsim.Addr
	LocalPort uint16

	// receiveQueue[rcvHead:] are the queued datagrams, each still the
	// packet it arrived in (as in TCPSocket.receiveQueue). Recv advances
	// rcvHead and rewinds both to the base once the queue is empty, so
	// input reuses the backing array instead of re-growing it (the way
	// TCPSocket.segmented does for sndBuf).
	receiveQueue []*netsim.Packet
	rcvHead      int
	// lent is the packet behind the Datagram the last Recv returned; the
	// next Recv or Close releases it.
	lent     *netsim.Packet
	unhashed bool

	// OnReadable fires when a datagram is queued.
	OnReadable func()

	BytesIn, BytesOut     uint64
	PacketsIn, PacketsOut uint64

	dstCacheByPeer map[netsim.Addr]*netsim.DstEntry
}

// NewUDPSocket allocates an unbound UDP socket.
func NewUDPSocket(s *Stack) *UDPSocket {
	return &UDPSocket{stack: s, dstCacheByPeer: make(map[netsim.Addr]*netsim.DstEntry)}
}

// Stack returns the owning stack.
func (us *UDPSocket) Stack() *Stack { return us.stack }

// Bind hashes the socket under the local port.
func (us *UDPSocket) Bind(addr netsim.Addr, port uint16) error {
	if us.stack.udph.get(port) != nil {
		return fmt.Errorf("netstack %s: UDP port %d already bound", us.stack.Name, port)
	}
	us.LocalIP = addr
	us.LocalPort = port
	us.stack.udph.set(port, us)
	return nil
}

// BindEphemeral binds to a stack-chosen port (client sockets).
func (us *UDPSocket) BindEphemeral(addr netsim.Addr) {
	us.LocalIP = addr
	us.LocalPort = us.stack.allocEphemeral()
	us.stack.udph.set(us.LocalPort, us)
}

// SendTo transmits one datagram.
func (us *UDPSocket) SendTo(dst netsim.Addr, port uint16, payload []byte) error {
	if us.unhashed {
		return fmt.Errorf("netstack: send on unhashed UDP socket")
	}
	d, ok := us.dstCacheByPeer[dst]
	if !ok {
		var err error
		if d, err = us.stack.DstFor(dst); err != nil {
			return err
		}
		us.dstCacheByPeer[dst] = d
	}
	p := us.stack.pool.NewPacket()
	p.SrcIP, p.DstIP, p.Proto, p.TTL = us.LocalIP, dst, netsim.ProtoUDP, 64
	p.SrcPort, p.DstPort = us.LocalPort, port
	p.TSVal = us.stack.Jiffies()
	p.Payload = us.stack.pool.GetPayload(len(payload))
	copy(p.Payload, payload)
	p.Dst = d
	p.FixChecksum()
	us.PacketsOut++
	us.BytesOut += uint64(len(payload))
	us.stack.transmit(p)
	return nil
}

func (us *UDPSocket) input(p *netsim.Packet) {
	if us.unhashed {
		p.Release()
		return
	}
	// The socket is the packet's sink and keeps it: payload bytes are
	// immutable once transmitted, so the queue needs no copy of them.
	us.receiveQueue = append(us.receiveQueue, p)
	us.PacketsIn++
	us.BytesIn += uint64(len(p.Payload))
	if us.OnReadable != nil {
		us.OnReadable()
	}
}

// Recv pops the oldest queued datagram; ok is false when empty. Either
// way it ends the loan of the previous one (see Datagram).
func (us *UDPSocket) Recv() (Datagram, bool) {
	us.releaseLent()
	if us.rcvHead == len(us.receiveQueue) {
		return Datagram{}, false
	}
	p := us.receiveQueue[us.rcvHead]
	us.receiveQueue[us.rcvHead] = nil
	us.rcvHead++
	if us.rcvHead == len(us.receiveQueue) {
		us.receiveQueue, us.rcvHead = us.receiveQueue[:0], 0
	}
	us.lent = p
	return Datagram{SrcIP: p.SrcIP, SrcPort: p.SrcPort, TSVal: p.TSVal, Payload: p.Payload}, true
}

func (us *UDPSocket) releaseLent() {
	if us.lent != nil {
		us.lent.Release()
		us.lent = nil
	}
}

// QueueLen reports buffered datagrams (dumped at migration time).
func (us *UDPSocket) QueueLen() int { return len(us.receiveQueue) - us.rcvHead }

// ReceiveQueue exposes the buffered datagrams for checkpointing; the
// packets stay the socket's.
func (us *UDPSocket) ReceiveQueue() []*netsim.Packet { return us.receiveQueue[us.rcvHead:] }

// ReleaseQueues ends the socket's hold on every packet: the datagram out
// on loan and the queued ones. Nothing reads the socket afterwards — the
// migrated-away original whose queue the image carried by copy, or a
// socket whose cell has ended (Stack.ReleaseQueues).
func (us *UDPSocket) ReleaseQueues() {
	us.releaseLent()
	us.receiveQueue, us.rcvHead = releaseAll(us.receiveQueue[us.rcvHead:]), 0
}

// Close unbinds the socket. Datagrams still queued stay readable.
func (us *UDPSocket) Close() {
	us.releaseLent()
	if !us.unhashed && us.stack.udph.get(us.LocalPort) == us {
		us.stack.udph.set(us.LocalPort, nil)
	}
	us.unhashed = true
}

// Unhash removes the socket from the UDP hash before migration (§V-C2:
// "each UDP server socket has to be unhashed before the migration").
func (us *UDPSocket) Unhash() {
	if us.unhashed {
		return
	}
	if us.stack.udph.get(us.LocalPort) == us {
		us.stack.udph.set(us.LocalPort, nil)
	}
	us.unhashed = true
}

// Rehash inserts the socket into its stack's UDP hash after restore.
func (us *UDPSocket) Rehash() error {
	if !us.unhashed {
		return fmt.Errorf("netstack: rehash of a hashed UDP socket")
	}
	if us.stack.udph.get(us.LocalPort) != nil {
		return fmt.Errorf("netstack %s: UDP port %d already bound", us.stack.Name, us.LocalPort)
	}
	us.stack.udph.set(us.LocalPort, us)
	us.unhashed = false
	return nil
}

// Unhashed reports migration-disabled state.
func (us *UDPSocket) Unhashed() bool { return us.unhashed }

// AdoptStack rebinds the socket to a new node's stack, clearing peer
// destination cache entries so they are re-resolved locally.
func (us *UDPSocket) AdoptStack(st *Stack) {
	us.stack = st
	us.dstCacheByPeer = make(map[netsim.Addr]*netsim.DstEntry)
}
