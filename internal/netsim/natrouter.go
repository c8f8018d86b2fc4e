package netsim

import (
	"fmt"

	"dvemig/internal/simtime"
)

// NATRouter is the baseline the paper contrasts with (§II-A, §VII-A):
// a network-address-translation single-IP cluster à la LVS [11] and
// NEC's TCP-Migration [8], where the router holds a dispatch table
// mapping each service port to exactly one server node. Migrating a
// connection requires updating the router's mapping, and "each time a
// connection is migrated inside the cluster the router's IP to MAC
// address mapping needs to be updated", causing incoming packet loss
// during the update window — the problem the broadcast configuration
// eliminates.
type NATRouter struct {
	sched     *simtime.Scheduler
	ClusterIP Addr

	servers  []*NIC
	external map[Addr]*NIC
	table    map[dispatchKey]*NIC

	// UpdateDelay models the router reconfiguration latency (control
	// plane round trip + table commit).
	UpdateDelay simtime.Duration

	// DroppedUnmapped counts packets to ports with no mapping (including
	// packets that raced an in-flight update).
	DroppedUnmapped uint64
	Dropped         uint64
}

type dispatchKey struct {
	proto byte
	port  uint16
}

// NewNATRouter creates a NAT dispatcher for the cluster IP.
func NewNATRouter(s *simtime.Scheduler, clusterIP Addr, updateDelay simtime.Duration) *NATRouter {
	return &NATRouter{
		sched: s, ClusterIP: clusterIP,
		external:    make(map[Addr]*NIC),
		table:       make(map[dispatchKey]*NIC),
		UpdateDelay: updateDelay,
	}
}

// AttachServer connects a server node's public interface.
func (r *NATRouter) AttachServer(name string, params LinkParams) *NIC {
	n := &NIC{Name: name, Addr: r.ClusterIP, Params: params, seg: r, sched: r.sched}
	r.servers = append(r.servers, n)
	return n
}

// AttachExternal connects a client machine.
func (r *NATRouter) AttachExternal(name string, addr Addr, params LinkParams) *NIC {
	if _, dup := r.external[addr]; dup {
		panic(fmt.Sprintf("netsim: duplicate external address %s", addr))
	}
	n := &NIC{Name: name, Addr: addr, Params: params, seg: r, sched: r.sched}
	r.external[addr] = n
	return n
}

// MapPort installs a dispatch entry immediately (initial deployment).
func (r *NATRouter) MapPort(proto byte, port uint16, to *NIC) {
	r.table[dispatchKey{proto, port}] = to
}

// UpdateMapping re-points a port to another server after the router's
// reconfiguration delay; done (optional) fires when the new mapping is
// live. Until then packets keep flowing to the old owner.
func (r *NATRouter) UpdateMapping(proto byte, port uint16, to *NIC, done func()) {
	r.sched.After(r.UpdateDelay, "nat.update", func() {
		r.table[dispatchKey{proto, port}] = to
		if done != nil {
			done()
		}
	})
}

func (r *NATRouter) route(from *NIC, p *Packet) {
	if p.DstIP == r.ClusterIP {
		dst, ok := r.table[dispatchKey{p.Proto, p.DstPort}]
		if !ok {
			r.DroppedUnmapped++
			p.Release()
			return
		}
		dst.deliver(p) // one recipient: it takes over the packet
		return
	}
	if dst, ok := r.external[p.DstIP]; ok {
		dst.deliver(p)
		return
	}
	r.Dropped++
	p.Release()
}
