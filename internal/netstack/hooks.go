// Package netstack implements the per-node network stack of the simulated
// cluster: an IPv4 layer with routing and a destination cache, the two
// netfilter slots the paper's kernel module occupies (capture and address
// translation), and TCP/UDP transport with the exact kernel structures the
// paper's socket migration manipulates — the ehash and bhash lookup
// tables, the write / receive / out-of-order / backlog / prequeue socket
// buffer queues, jiffies-based TCP timestamps and the retransmission
// timer.
package netstack

import "dvemig/internal/netsim"

// Capturer fills the capture slot on NF_INET_LOCAL_IN (§III-B, §V-B). A
// packet it takes is its own from then on: it hands the packet back
// through Reinject or releases it.
type Capturer interface {
	Capture(p *netsim.Packet) (taken bool)
}

// Rewriter fills the address-translation slot (§III-C, §V-D): In runs on
// NF_INET_LOCAL_IN, Out on NF_INET_LOCAL_OUT. It may rewrite header
// fields of its node's copy of a packet; it never keeps or drops one.
type Rewriter interface {
	In(p *netsim.Packet)
	Out(p *netsim.Packet)
}

// SetCapturer fills the capture slot, or empties it with nil.
func (s *Stack) SetCapturer(c Capturer) { s.capturer = c }

// SetRewriter fills the translation slot, or empties it with nil.
func (s *Stack) SetRewriter(r Rewriter) { s.rewriter = r }
