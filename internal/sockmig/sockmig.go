// Package sockmig implements the paper's central contribution: socket
// migration for processes holding massive numbers of connections, in the
// three variants the evaluation compares (§III-C, Fig 5b/5c):
//
//   - Iterative: walk the FD table and migrate each socket one by one,
//     with a capture-setup synchronization and a separate transfer per
//     socket (the authors' first design, from their earlier IPSJ paper).
//   - Collective: three phases — (1) collect and ship the capture details
//     of all connections at once, (2) subtract state and buffer queues of
//     all connections into one unified buffer transferred in one go,
//     (3) run the regular BLCR FD-table iteration excluding sockets.
//   - Incremental collective: additionally track socket changes during
//     the precopy loops and transfer only per-section deltas, so the
//     freeze phase ships a small fraction of the bytes.
//
// The package provides the tracking and (de)serialization machinery; the
// migration engine (package migration) drives it over the wire.
package sockmig

import (
	"fmt"
	"hash/fnv"
	"slices"

	"dvemig/internal/netsim"
	"dvemig/internal/netstack"
	"dvemig/internal/proc"
)

// Strategy selects the socket migration variant.
type Strategy int

// Strategies under evaluation.
const (
	Iterative Strategy = iota
	Collective
	IncrementalCollective
)

// String names the strategy as in the paper's figures.
func (s Strategy) String() string {
	switch s {
	case Iterative:
		return "iterative"
	case Collective:
		return "collective"
	case IncrementalCollective:
		return "incremental collective"
	}
	return "unknown"
}

// SectionUpdate is one changed section of one socket.
type SectionUpdate struct {
	ID   netstack.SectionID
	Data []byte
}

// SockUpdate carries the changed state of one socket, identified by its
// file descriptor (stable across the migration).
type SockUpdate struct {
	FD   int
	Kind byte // 'T' or 'U'
	// TCP: changed sections. UDP: UDPData holds the whole snapshot
	// (UDP socket state is small, §V-C2).
	Sections []SectionUpdate
	UDPData  []byte
}

// SockDelta is one round of socket updates for a process.
type SockDelta struct {
	Round int
	Socks []SockUpdate
}

// Empty reports whether the delta carries no socket data.
func (d *SockDelta) Empty() bool { return len(d.Socks) == 0 }

// EncodedSize returns the wire size without materializing the buffer.
func (d *SockDelta) EncodedSize() int {
	n := 8
	for _, su := range d.Socks {
		n += 4 + 1 + 4
		for _, sec := range su.Sections {
			n += 1 + 4 + len(sec.Data)
		}
		n += 4 + len(su.UDPData)
	}
	return n
}

// Encode serializes the delta.
func (d *SockDelta) Encode() []byte { return d.EncodeInto(nil) }

// EncodeInto serializes the delta into buf, reusing its capacity when it
// fits (content is overwritten). See ckpt.MemDelta.EncodeInto for the
// ownership contract.
func (d *SockDelta) EncodeInto(buf []byte) []byte {
	if need := d.EncodedSize(); cap(buf) < need {
		buf = make([]byte, 0, need)
	}
	return d.AppendEncode(buf[:0])
}

// AppendEncode appends the delta's encoding to w (see
// ckpt.Image.AppendEncode), reserving its exact size first: a thousand
// sockets' worth appended to a small buffer would otherwise be
// reallocated a dozen times on the way.
func (d *SockDelta) AppendEncode(w []byte) []byte {
	w = slices.Grow(w, d.EncodedSize())
	put32 := func(v uint32) { w = append(w, byte(v>>24), byte(v>>16), byte(v>>8), byte(v)) }
	put32(uint32(d.Round))
	put32(uint32(len(d.Socks)))
	for _, su := range d.Socks {
		put32(uint32(su.FD))
		w = append(w, su.Kind)
		put32(uint32(len(su.Sections)))
		for _, sec := range su.Sections {
			w = append(w, byte(sec.ID))
			put32(uint32(len(sec.Data)))
			w = append(w, sec.Data...)
		}
		put32(uint32(len(su.UDPData)))
		w = append(w, su.UDPData...)
	}
	return w
}

// DecodeSockDelta parses an encoded delta.
func DecodeSockDelta(b []byte) (*SockDelta, error) {
	off := 0
	get32 := func() (uint32, error) {
		if off+4 > len(b) {
			return 0, fmt.Errorf("sockmig: truncated delta at %d", off)
		}
		v := uint32(b[off])<<24 | uint32(b[off+1])<<16 | uint32(b[off+2])<<8 | uint32(b[off+3])
		off += 4
		return v, nil
	}
	round, err := get32()
	if err != nil {
		return nil, err
	}
	count, err := get32()
	if err != nil {
		return nil, err
	}
	if count > 1<<20 {
		return nil, fmt.Errorf("sockmig: absurd socket count %d", count)
	}
	d := &SockDelta{Round: int(round)}
	for i := uint32(0); i < count; i++ {
		var su SockUpdate
		fd, err := get32()
		if err != nil {
			return nil, err
		}
		su.FD = int(fd)
		if off >= len(b) {
			return nil, fmt.Errorf("sockmig: truncated kind")
		}
		su.Kind = b[off]
		off++
		nsec, err := get32()
		if err != nil {
			return nil, err
		}
		if nsec > 16 {
			return nil, fmt.Errorf("sockmig: absurd section count %d", nsec)
		}
		for j := uint32(0); j < nsec; j++ {
			if off >= len(b) {
				return nil, fmt.Errorf("sockmig: truncated section id")
			}
			id := netstack.SectionID(b[off])
			off++
			n, err := get32()
			if err != nil {
				return nil, err
			}
			if off+int(n) > len(b) {
				return nil, fmt.Errorf("sockmig: truncated section data")
			}
			su.Sections = append(su.Sections, SectionUpdate{ID: id,
				Data: append([]byte(nil), b[off:off+int(n)]...)})
			off += int(n)
		}
		n, err := get32()
		if err != nil {
			return nil, err
		}
		if off+int(n) > len(b) {
			return nil, fmt.Errorf("sockmig: truncated udp data")
		}
		if n > 0 {
			su.UDPData = append([]byte(nil), b[off:off+int(n)]...)
			off += int(n)
		}
		d.Socks = append(d.Socks, su)
	}
	return d, nil
}

func hashBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// Tracker maintains per-socket per-section content hashes across precopy
// rounds — "we maintain tracking structures for connections and transfer
// only the changes in each subsequent loop" (§III-C).
type Tracker struct {
	prevTCP map[int]*[numSections]uint64 // fd -> section hashes
	prevUDP map[int]uint64               // fd -> snapshot hash
	// SkippedLocked counts sockets left for a later round because they
	// were locked or mid fast-path receive (§V-C1).
	SkippedLocked uint64
	round         int

	// One snapshot and one encode buffer serve every socket of every
	// round: a section is encoded into scratch to be hashed, and only a
	// changed one is copied out, so a round over quiescent sockets
	// allocates nothing per socket.
	snap    netstack.TCPSnapshot
	scratch []byte
}

// numSections is the number of TCP snapshot sections a delta can carry.
const numSections = int(netstack.SecOOOQueue) + 1

// NewTracker creates an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{prevTCP: make(map[int]*[numSections]uint64), prevUDP: make(map[int]uint64)}
}

// CaptureKeys returns the capture-filter keys for every socket of the
// process — the payload of the collective capture-setup phase. TCP
// established sockets produce exact flow keys; listening TCP sockets and
// UDP sockets produce local-port wildcards.
func CaptureKeys(p *proc.Process) []netsim.FlowKey {
	var keys []netsim.FlowKey
	tcp, udp := p.Sockets()
	for _, sk := range tcp {
		if sk.State == netstack.TCPListen {
			keys = append(keys, netsim.FlowKey{LocalPort: sk.LocalPort, Proto: netsim.ProtoTCP})
		} else {
			keys = append(keys, netsim.FlowKey{RemoteIP: sk.RemoteIP, RemotePort: sk.RemotePort,
				LocalPort: sk.LocalPort, Proto: netsim.ProtoTCP})
		}
	}
	for _, us := range udp {
		keys = append(keys, netsim.FlowKey{LocalPort: us.LocalPort, Proto: netsim.ProtoUDP})
	}
	return keys
}

// Delta computes one round of socket updates. In precopy rounds
// (freeze=false) sockets that are locked or fast-path receiving are
// skipped — their checkpoint is left "either for the subsequent loop or
// the final process freeze phase". In the freeze round the signal-based
// notification guarantees quiescence, so every socket is inspected, and
// changed sections are emitted; unchanged sockets are omitted entirely.
func (t *Tracker) Delta(p *proc.Process, freeze bool) *SockDelta {
	t.round++
	d := &SockDelta{Round: t.round}
	fds := p.FDs.FDs()
	for _, fd := range fds {
		f, ok := p.FDs.Get(fd).(*proc.TCPFile)
		if !ok {
			continue
		}
		sk := f.Sock
		if !freeze && (sk.Locked() || sk.PrequeueBusy()) {
			t.SkippedLocked++
			continue
		}
		netstack.SnapshotTCPInto(&t.snap, sk)
		prev := t.prevTCP[fd]
		if prev == nil {
			prev = new([numSections]uint64)
			t.prevTCP[fd] = prev
		}
		su := SockUpdate{FD: fd, Kind: 'T'}
		for id := netstack.SectionID(0); int(id) < numSections; id++ {
			t.scratch = t.snap.AppendSectionHashBytes(t.scratch[:0], id)
			h := hashBytes(t.scratch)
			if h == prev[id] {
				continue
			}
			prev[id] = h
			data := make([]byte, len(t.scratch))
			if id == netstack.SecCore {
				// The hashed form has the capture clock masked; ship the
				// real one (same length, a few dozen bytes).
				data = t.snap.AppendSection(data[:0], id)
			} else {
				copy(data, t.scratch)
			}
			su.Sections = append(su.Sections, SectionUpdate{ID: id, Data: data})
		}
		if len(su.Sections) > 0 {
			d.Socks = append(d.Socks, su)
		}
	}
	for _, fd := range fds {
		f, ok := p.FDs.Get(fd).(*proc.UDPFile)
		if !ok {
			continue
		}
		snap := netstack.SnapshotUDP(f.Sock)
		t.scratch = snap.AppendHashBytes(t.scratch[:0])
		h := hashBytes(t.scratch)
		if h != t.prevUDP[fd] {
			t.prevUDP[fd] = h
			d.Socks = append(d.Socks, SockUpdate{FD: fd, Kind: 'U',
				UDPData: snap.AppendEncode(make([]byte, 0, len(t.scratch)))})
		}
	}
	return d
}

// fullTCP is the all-sections update of one TCP socket.
func fullTCP(fd int, sk *netstack.TCPSocket) SockUpdate {
	snap := netstack.SnapshotTCP(sk)
	su := SockUpdate{FD: fd, Kind: 'T', Sections: make([]SectionUpdate, numSections)}
	for i := range su.Sections {
		id := netstack.SectionID(i)
		su.Sections[i] = SectionUpdate{ID: id, Data: snap.EncodeSection(id)}
	}
	return su
}

// FullDelta snapshots every socket completely, ignoring history — what
// the iterative and plain collective strategies ship in the freeze phase.
func FullDelta(p *proc.Process) *SockDelta {
	d := &SockDelta{Round: 0}
	fds := p.FDs.FDs()
	for _, fd := range fds {
		if f, ok := p.FDs.Get(fd).(*proc.TCPFile); ok {
			d.Socks = append(d.Socks, fullTCP(fd, f.Sock))
		}
	}
	for _, fd := range fds {
		if f, ok := p.FDs.Get(fd).(*proc.UDPFile); ok {
			d.Socks = append(d.Socks, SockUpdate{FD: fd, Kind: 'U',
				UDPData: netstack.SnapshotUDP(f.Sock).Encode()})
		}
	}
	return d
}

// SocketsInFDOrder returns the process's sockets in FD-table order, the
// iteration order of the iterative strategy.
func SocketsInFDOrder(p *proc.Process) ([]*netstack.TCPSocket, []*netstack.UDPSocket) {
	return p.Sockets()
}

// FDOf returns the descriptor holding sk, or -1.
func FDOf(p *proc.Process, sk *netstack.TCPSocket) int {
	for _, fd := range p.FDs.FDs() {
		if f, ok := p.FDs.Get(fd).(*proc.TCPFile); ok && f.Sock == sk {
			return fd
		}
	}
	return -1
}

// FDOfUDP returns the descriptor holding us, or -1.
func FDOfUDP(p *proc.Process, us *netstack.UDPSocket) int {
	for _, fd := range p.FDs.FDs() {
		if f, ok := p.FDs.Get(fd).(*proc.UDPFile); ok && f.Sock == us {
			return fd
		}
	}
	return -1
}

// SingleTCP builds a full-state delta for one TCP socket (the iterative
// strategy's per-connection transfer unit).
func SingleTCP(fd int, sk *netstack.TCPSocket) *SockDelta {
	return &SockDelta{Socks: []SockUpdate{fullTCP(fd, sk)}}
}

// SingleUDP builds a full-state delta for one UDP socket.
func SingleUDP(fd int, us *netstack.UDPSocket) *SockDelta {
	return &SockDelta{Socks: []SockUpdate{{FD: fd, Kind: 'U',
		UDPData: netstack.SnapshotUDP(us).Encode()}}}
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// Store accumulates socket updates on the destination node across precopy
// rounds; at freeze time it materializes the sockets.
type Store struct {
	tcp map[int]*netstack.TCPSnapshot
	udp map[int]*netstack.UDPSnapshot
	// BytesApplied counts payload bytes folded in, per kind.
	BytesApplied uint64
}

// NewStore creates an empty accumulator.
func NewStore() *Store {
	return &Store{tcp: make(map[int]*netstack.TCPSnapshot), udp: make(map[int]*netstack.UDPSnapshot)}
}

// Apply folds one delta into the store.
func (s *Store) Apply(d *SockDelta) error {
	for _, su := range d.Socks {
		switch su.Kind {
		case 'T':
			snap := s.tcp[su.FD]
			if snap == nil {
				snap = &netstack.TCPSnapshot{}
				s.tcp[su.FD] = snap
			}
			for _, sec := range su.Sections {
				if err := snap.ApplySection(sec.ID, sec.Data); err != nil {
					return fmt.Errorf("sockmig: fd %d section %v: %w", su.FD, sec.ID, err)
				}
				s.BytesApplied += uint64(len(sec.Data))
			}
		case 'U':
			snap, err := netstack.DecodeUDPSnapshot(su.UDPData)
			if err != nil {
				return fmt.Errorf("sockmig: fd %d udp: %w", su.FD, err)
			}
			s.udp[su.FD] = snap
			s.BytesApplied += uint64(len(su.UDPData))
		default:
			return fmt.Errorf("sockmig: unknown socket kind %q", su.Kind)
		}
	}
	return nil
}

// TCPCount and UDPCount report accumulated sockets.
func (s *Store) TCPCount() int { return len(s.tcp) }

// UDPCount reports accumulated UDP sockets.
func (s *Store) UDPCount() int { return len(s.udp) }

// RestoreOptions control socket materialization.
type RestoreOptions struct {
	// LocalNet/LocalNetBits identify in-cluster remote addresses: TCP
	// connections whose remote falls inside get their local IP rewritten
	// to NewLocalIP (the migrated socket's address changes, §III-C).
	LocalNet     netsim.Addr
	LocalNetBits int
	NewLocalIP   netsim.Addr
	OldLocalIP   netsim.Addr
}

// InCluster reports whether addr is on the in-cluster network.
func (o RestoreOptions) InCluster(addr netsim.Addr) bool {
	if o.LocalNetBits == 0 {
		return false
	}
	mask := netsim.Addr(^uint32(0) << (32 - o.LocalNetBits))
	return addr&mask == o.LocalNet&mask
}

// RestoreAll materializes every accumulated socket on the destination
// stack and installs them into the process's FD table at their original
// descriptors. It returns the restored TCP sockets by fd for reinjection
// bookkeeping.
func (s *Store) RestoreAll(st *netstack.Stack, p *proc.Process, opt RestoreOptions) (map[int]*netstack.TCPSocket, map[int]*netstack.UDPSocket, error) {
	tcpOut := make(map[int]*netstack.TCPSocket, len(s.tcp))
	udpOut := make(map[int]*netstack.UDPSocket, len(s.udp))
	for _, fd := range sortedSnapKeysT(s.tcp) {
		snap := s.tcp[fd]
		if opt.InCluster(snap.RemoteIP) && opt.NewLocalIP != 0 && !snap.Listening {
			// The in-cluster socket's local address changes with the
			// migration; remember the original identity so later
			// migrations key their translation rules on it (§III-C).
			if snap.OrigLocalIP == 0 {
				snap.OrigLocalIP = snap.LocalIP
			}
			snap.LocalIP = opt.NewLocalIP
		}
		sk, err := netstack.RestoreTCP(st, snap)
		if err != nil {
			return nil, nil, fmt.Errorf("sockmig: restore tcp fd %d: %w", fd, err)
		}
		if err := p.FDs.InstallAt(fd, &proc.TCPFile{Sock: sk}); err != nil {
			return nil, nil, err
		}
		tcpOut[fd] = sk
	}
	for _, fd := range sortedSnapKeysU(s.udp) {
		us, err := netstack.RestoreUDP(st, s.udp[fd])
		if err != nil {
			return nil, nil, fmt.Errorf("sockmig: restore udp fd %d: %w", fd, err)
		}
		if err := p.FDs.InstallAt(fd, &proc.UDPFile{Sock: us}); err != nil {
			return nil, nil, err
		}
		udpOut[fd] = us
	}
	return tcpOut, udpOut, nil
}

func sortedSnapKeysT(m map[int]*netstack.TCPSnapshot) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sortInts(out)
	return out
}

func sortedSnapKeysU(m map[int]*netstack.UDPSnapshot) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sortInts(out)
	return out
}

// DisableAll unhashes every socket of the process: the point of no
// return on the source node. Returns counts for metrics.
func DisableAll(p *proc.Process) (ntcp, nudp int) {
	tcp, udp := p.Sockets()
	for _, sk := range tcp {
		sk.Unhash()
		ntcp++
	}
	for _, us := range udp {
		us.Unhash()
		nudp++
	}
	return ntcp, nudp
}
