// Package capture implements the incoming-packet-loss prevention
// mechanism of §III-B / §V-B (the cap_trans_mod kernel module): while a
// socket is being migrated, the destination node captures packets that
// match the migrating connection in the stack's NF_INET_LOCAL_IN capture
// slot, dedups TCP segments by sequence number, and reinjects the queue
// through the okfn (ip_rcv_finish) once the socket is restored.
//
// The single-IP broadcast router makes this possible with no router
// changes: the destination node already sees every client packet.
package capture

import (
	"fmt"

	"dvemig/internal/netsim"
	"dvemig/internal/netstack"
)

// Filter captures packets for one migrating connection (TCP: exact
// remote IP/port + local port) or one migrating server port (UDP:
// RemoteIP/RemotePort zero act as wildcards, since a UDP server socket
// receives from arbitrary peers).
type Filter struct {
	Key netsim.FlowKey

	// Epoch stamps the ownership epoch under which the filter was
	// installed. A fence raised above it (FencePort) garbage-collects
	// the filter and forbids reinjection of its queue: a node that lost
	// ownership of a port must never replay packets it stole for it.
	Epoch uint64

	queue []*netsim.Packet
	// seqSeen is made on the first TCP capture: most filters of a
	// migration never see a packet, and reading a nil map is valid.
	seqSeen map[uint32]bool

	// Captured and Deduped count packets queued and duplicates skipped.
	Captured, Deduped uint64
}

func (f *Filter) matches(p *netsim.Packet) bool {
	if p.Proto != f.Key.Proto {
		return false
	}
	if p.DstPort != f.Key.LocalPort {
		return false
	}
	if f.Key.RemoteIP != 0 && p.SrcIP != f.Key.RemoteIP {
		return false
	}
	if f.Key.RemotePort != 0 && p.SrcPort != f.Key.RemotePort {
		return false
	}
	return true
}

// QueueLen reports captured packets currently held.
func (f *Filter) QueueLen() int { return len(f.queue) }

// Service owns the capture filters of one node.
type Service struct {
	stack   *netstack.Stack
	filters []*Filter

	// fences maps a local port to the minimum acceptable filter epoch.
	// Raised by FencePort when the node observes that ownership of the
	// port moved to a higher epoch elsewhere.
	fences map[uint16]uint64

	// TotalCaptured counts across all filters' lifetimes; Fenced counts
	// filters dropped (queue discarded) by epoch fences.
	TotalCaptured uint64
	Fenced        uint64
}

// NewService creates the capture service for a node's stack. It fills
// the stack's capture slot while at least one filter is enabled.
func NewService(st *netstack.Stack) *Service {
	return &Service{stack: st, fences: make(map[uint16]uint64)}
}

// Enable starts capturing packets matching key with epoch 0 (unfenced
// legacy path). It returns the filter so the migration engine can
// inspect the queue.
func (s *Service) Enable(key netsim.FlowKey) *Filter {
	return s.EnableEpoch(key, 0)
}

// EnableEpoch starts capturing packets matching key under an ownership
// epoch. If the port is already fenced above the epoch the returned
// filter is inert: it is not installed and will never capture — the
// caller's migration is acting on superseded ownership.
func (s *Service) EnableEpoch(key netsim.FlowKey, ep uint64) *Filter {
	f := &Filter{Key: key, Epoch: ep}
	if min, fenced := s.fences[key.LocalPort]; fenced && ep < min {
		s.Fenced++
		return f // inert: below the fence, never installed
	}
	if len(s.filters) == 0 {
		s.stack.SetCapturer(s)
	}
	s.filters = append(s.filters, f)
	return f
}

// FencePort raises the minimum acceptable epoch for a local port and
// garbage-collects every installed filter below it, discarding their
// queues. Called when the node learns the port's service is owned
// elsewhere at a higher epoch: whatever was captured here belongs to a
// superseded owner and must never be reinjected.
func (s *Service) FencePort(port uint16, ep uint64) int {
	if cur := s.fences[port]; ep <= cur {
		return 0
	}
	s.fences[port] = ep
	dropped := 0
	kept := s.filters[:0]
	for _, f := range s.filters {
		if f.Key.LocalPort == port && f.Epoch < ep {
			for _, p := range f.queue {
				p.Release()
			}
			f.queue = nil
			s.Fenced++
			dropped++
			continue
		}
		kept = append(kept, f)
	}
	s.filters = kept
	s.emptySlot()
	return dropped
}

// PortFence returns the current fence epoch for a port (0 = unfenced).
func (s *Service) PortFence(port uint16) uint64 { return s.fences[port] }

// emptySlot leaves the stack's capture slot once the last filter is gone.
func (s *Service) emptySlot() {
	if len(s.filters) == 0 {
		s.stack.SetCapturer(nil)
	}
}

// Capture fills the stack's capture slot: it takes a packet that matches
// an enabled filter into the filter's queue, or consumes it as a
// duplicate.
func (s *Service) Capture(p *netsim.Packet) bool {
	for _, f := range s.filters {
		if !f.matches(p) {
			continue
		}
		// TCP sequence dedup: "checks TCP sequence numbers and stores
		// duplicated packets only once" (§III-B).
		if p.Proto == netsim.ProtoTCP {
			if f.seqSeen[p.Seq] {
				f.Deduped++
				p.Release() // duplicate consumed, not requeued
				return true
			}
			if f.seqSeen == nil {
				f.seqSeen = make(map[uint32]bool)
			}
			f.seqSeen[p.Seq] = true
		}
		f.queue = append(f.queue, p)
		f.Captured++
		s.TotalCaptured++
		return true
	}
	return false
}

// ReinjectAndDisable removes the filter and submits each captured packet
// back to the stack through the okfn, in arrival order. The migrated
// socket — rehashed just before this call — processes them as if they
// had just arrived. Returns the number of packets reinjected.
//
// A filter whose epoch fell below the port fence is refused: it is
// removed and its queue discarded, but nothing is reinjected — replaying
// packets captured under superseded ownership would hand a stale owner
// back its traffic.
func (s *Service) ReinjectAndDisable(f *Filter) (int, error) {
	if min, fenced := s.fences[f.Key.LocalPort]; fenced && f.Epoch < min {
		s.Drop(f)
		s.Fenced++
		return 0, fmt.Errorf("capture: filter %v fenced (epoch %d < %d)", f.Key, f.Epoch, min)
	}
	idx := -1
	for i, g := range s.filters {
		if g == f {
			idx = i
			break
		}
	}
	if idx < 0 {
		return 0, fmt.Errorf("capture: filter %v not enabled", f.Key)
	}
	s.filters = append(s.filters[:idx], s.filters[idx+1:]...)
	s.emptySlot()
	n := 0
	for _, p := range f.queue {
		s.stack.Reinject(p)
		n++
	}
	f.queue = nil
	return n, nil
}

// Drop discards a filter and its queue without reinjection (abort path).
func (s *Service) Drop(f *Filter) {
	for i, g := range s.filters {
		if g == f {
			s.filters = append(s.filters[:i], s.filters[i+1:]...)
			break
		}
	}
	s.emptySlot()
	for _, p := range f.queue {
		p.Release()
	}
	f.queue = nil
}

// ActiveFilters reports how many filters are enabled.
func (s *Service) ActiveFilters() int { return len(s.filters) }
