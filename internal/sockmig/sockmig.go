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
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"dvemig/internal/netsim"
	"dvemig/internal/netstack"
	"dvemig/internal/proc"
	"dvemig/internal/wire"
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
	// wire is the delta's encoding when a Tracker built it, and the
	// tracker's arena: the sections above point into these bytes. Empty
	// for a decoded or hand-built delta, and for a round that met no
	// socket.
	wire []byte
}

// Empty reports whether the delta carries no socket data.
func (d *SockDelta) Empty() bool { return len(d.Socks) == 0 }

// Wire returns the delta's encoding. A tracker's delta is its arena,
// returned as it is and lent like the rest of the delta (read-only: an
// edit to the fields does not reach it); any other, and a round that met
// no socket, is encoded into a fresh buffer.
func (d *SockDelta) Wire() []byte {
	if n := len(d.wire); n > 0 {
		return d.wire[:n:n]
	}
	return d.AppendEncode(nil)
}

// encodedSize returns the wire size without materializing the buffer.
func (d *SockDelta) encodedSize() int {
	n := deltaHdrBytes
	for _, su := range d.Socks {
		n += sockHdrBytes
		for _, sec := range su.Sections {
			n += secHdrBytes + len(sec.Data)
		}
		n += udpLenBytes + len(su.UDPData)
	}
	return n
}

// Encode serializes the delta.
func (d *SockDelta) Encode() []byte { return d.EncodeInto(nil) }

// EncodeInto serializes the delta into buf, reusing its capacity when it
// fits (content is overwritten). See ckpt.MemDelta.EncodeInto for the
// ownership contract.
func (d *SockDelta) EncodeInto(buf []byte) []byte { return d.AppendEncode(buf[:0]) }

// AppendEncode appends the delta's encoding, written field by field, to
// w (see ckpt.Image.AppendEncode), reserving its exact size first: a
// thousand sockets' worth appended to a small buffer would otherwise be
// reallocated a dozen times on the way. For a tracker's delta it writes
// what Wire returns, as long as the fields are left as lent.
func (d *SockDelta) AppendEncode(w []byte) []byte {
	w = slices.Grow(w, d.encodedSize())
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

// DecodeSockDelta parses an encoded delta. The delta is lent from b:
// every section's Data and every UDPData alias it, and nothing is copied.
func DecodeSockDelta(b []byte) (*SockDelta, error) {
	d := new(SockDelta)
	if err := decodeInto(d, b); err != nil {
		return nil, err
	}
	return d, nil
}

// decodeInto parses b into d, reusing d's Socks and their Sections
// backing arrays; the data fields alias b.
func decodeInto(d *SockDelta, b []byte) error {
	r := wire.NewReader(b)
	round, count := r.U32(), r.U32()
	if r.Err() != nil {
		return r.Err()
	}
	if count > 1<<20 {
		return fmt.Errorf("sockmig: absurd socket count %d", count)
	}
	// A socket takes at least 13 bytes, which bounds what a hostile
	// count can reserve.
	d.Round, d.Socks = int(round), slices.Grow(d.Socks[:0], min(int(count), len(r.Rest())/13))
	for i := uint32(0); i < count; i++ {
		fd, kind, nsec := r.U32(), r.U8(), r.U32()
		if r.Err() != nil {
			return r.Err()
		}
		if nsec > 16 {
			return fmt.Errorf("sockmig: absurd section count %d", nsec)
		}
		// The next element's Sections array, if an earlier decode left
		// one, is reused.
		d.Socks = slices.Grow(d.Socks, 1)[:len(d.Socks)+1]
		su := &d.Socks[len(d.Socks)-1]
		*su = SockUpdate{FD: int(fd), Kind: kind, Sections: slices.Grow(su.Sections[:0], int(nsec))}
		for j := uint32(0); j < nsec; j++ {
			id := netstack.SectionID(r.U8())
			su.Sections = append(su.Sections, SectionUpdate{ID: id, Data: r.Span()})
		}
		if udp := r.Span(); len(udp) > 0 {
			su.UDPData = udp
		}
		if r.Err() != nil {
			return r.Err()
		}
	}
	return nil
}

// hashBytes is 64-bit FNV-1a over b, the values hash/fnv's New64a
// gives, written out so a section's hash costs no interface call and no
// hasher. The hashes never leave the tracker.
func hashBytes(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// Tracker maintains per-socket per-section content hashes across precopy
// rounds — "we maintain tracking structures for connections and transfer
// only the changes in each subsequent loop" (§III-C).
//
// The delta a Tracker returns is lent until the tracker's next call:
// every section's bytes live in one arena the tracker owns, laid out as
// the delta's wire form (Wire), and Socks and Sections reuse their
// backing arrays round to round. A caller sends it, or copies what it
// keeps, before asking for the next.
type Tracker struct {
	// history is set for a tracker that ships only what changed:
	// prevTCP and prevUDP then hold the hashes shipped last, fd ->
	// section hashes and fd -> snapshot hash, made on the first socket
	// they record. A tracker without history (FullDelta, SingleTCP,
	// SingleUDP) ships every section of every socket.
	history bool
	prevTCP map[int]*[numSections]uint64
	prevUDP map[int]uint64
	// SkippedLocked counts sockets left for a later round because they
	// were locked or mid fast-path receive (§V-C1).
	SkippedLocked uint64
	round         int

	// One snapshot and one hash buffer serve every socket of every
	// round: a section's hash form is built in scratch, and only a
	// changed section is written, once, into the arena (d.wire) — so a
	// round over quiescent sockets allocates nothing, and neither does a
	// busy one once the arrays have grown.
	snap    netstack.TCPSnapshot
	scratch []byte
	d       SockDelta
	secs    []SectionUpdate
}

// numSections is the number of TCP snapshot sections a delta can carry.
const numSections = int(netstack.SecOOOQueue) + 1

// The framing of an encoded delta around the section bytes: the round
// number and socket count; each socket's FD, kind and section count; each
// section's id and length; and the UDP snapshot's length word that ends
// every socket, TCP ones included.
const (
	deltaHdrBytes = 4 + 4
	sockHdrBytes  = 4 + 1 + 4
	secHdrBytes   = 1 + 4
	udpLenBytes   = 4
)

// NewTracker creates an empty tracker with history.
func NewTracker() *Tracker { return &Tracker{history: true} }

// poisonLent is the lending contract's tripwire: while set, a tracker
// overwrites the bytes of the delta it lent last with 0xDB before it
// builds the next, so a holder that kept one reads 0xDB.
var poisonLent bool

// PoisonLentDeltas turns the tripwire on for the rest of the process.
// Test packages call it; the simulation never does.
func PoisonLentDeltas() { poisonLent = true }

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
// The delta is lent (see Tracker).
func (t *Tracker) Delta(p *proc.Process, freeze bool) *SockDelta {
	t.round++
	return t.scan(p, freeze)
}

// FullDelta snapshots every socket completely, ignoring history — what
// the iterative and plain collective strategies ship in the freeze phase.
// It is a history-less tracker's round 0.
func FullDelta(p *proc.Process) *SockDelta { return new(Tracker).scan(p, true) }

// SingleTCP builds a full-state delta for one TCP socket (the iterative
// strategy's per-connection transfer unit).
func SingleTCP(fd int, sk *netstack.TCPSocket) *SockDelta {
	t := &Tracker{d: SockDelta{wire: make([]byte, 0, deltaHdrBytes+tcpWireLen(sk))}}
	t.addTCP(fd, sk)
	return t.lend()
}

// SingleUDP builds a full-state delta for one UDP socket.
func SingleUDP(fd int, us *netstack.UDPSocket) *SockDelta {
	t := &Tracker{d: SockDelta{wire: make([]byte, 0, deltaHdrBytes+udpWireLen(us))}}
	t.addUDP(fd, us)
	return t.lend()
}

// tcpWireLen and udpWireLen are what a socket shipped whole takes in the
// arena, framing included.
func tcpWireLen(sk *netstack.TCPSocket) int {
	return sockHdrBytes + numSections*secHdrBytes + netstack.TCPSnapshotLen(sk) + udpLenBytes
}

func udpWireLen(us *netstack.UDPSocket) int {
	return sockHdrBytes + udpLenBytes + netstack.UDPSnapshotLen(us)
}

// scan builds one round over p's sockets: TCP in descriptor order, then
// UDP.
func (t *Tracker) scan(p *proc.Process, freeze bool) *SockDelta {
	if poisonLent {
		lent := t.d.wire[:cap(t.d.wire)]
		for i := range lent {
			lent[i] = 0xDB
		}
	}
	t.d.wire, t.secs, t.d.Socks = t.d.wire[:0], t.secs[:0], t.d.Socks[:0]
	fds := p.FDs.FDs()
	if cap(t.d.wire) == 0 {
		t.reserve(p, fds)
	}
	for _, fd := range fds {
		f, ok := p.FDs.Get(fd).(*proc.TCPFile)
		if !ok {
			continue
		}
		if !freeze && (f.Sock.Locked() || f.Sock.PrequeueBusy()) {
			t.SkippedLocked++
			continue
		}
		t.addTCP(fd, f.Sock)
	}
	for _, fd := range fds {
		if f, ok := p.FDs.Get(fd).(*proc.UDPFile); ok {
			t.addUDP(fd, f.Sock)
		}
	}
	return t.lend()
}

// reserve sizes a cold tracker's arena and arrays for every section of
// every socket — what its first round ships — so the round that fills
// them most does not grow them by doubling.
func (t *Tracker) reserve(p *proc.Process, fds []int) {
	bytes, ntcp := deltaHdrBytes, 0
	for _, fd := range fds {
		switch f := p.FDs.Get(fd).(type) {
		case *proc.TCPFile:
			bytes += tcpWireLen(f.Sock)
			ntcp++
		case *proc.UDPFile:
			bytes += udpWireLen(f.Sock)
		}
	}
	if bytes > deltaHdrBytes {
		t.d.wire = wire.Take(bytes)
	}
	t.secs = make([]SectionUpdate, 0, ntcp*numSections)
	t.d.Socks = make([]SockUpdate, 0, len(fds))
}

// Release gives the tracker's arena to the wire pool, for the next
// migration's tracker to reserve: the delta it lent last goes with it. A
// tracker that scans again reserves a new arena.
func (t *Tracker) Release() {
	wire.Give(t.d.wire)
	t.d.wire = nil
}

// appendSockHdr appends a socket's FD, kind and a section count to be
// patched, ahead of the round's header if this is its first socket. The
// arena is laid out as the wire form itself — the header, then each
// socket as AppendEncode writes it — so the round ships without a second
// copy; a round that meets no socket leaves the arena empty, and a
// process without sockets costs the tracker no arena.
func (t *Tracker) appendSockHdr(fd int, kind byte) {
	if len(t.d.wire) == 0 {
		t.d.wire = binary.BigEndian.AppendUint32(t.d.wire, uint32(t.round))
		t.d.wire = append(t.d.wire, 0, 0, 0, 0) // the socket count, patched by lend
	}
	t.d.wire = binary.BigEndian.AppendUint32(t.d.wire, uint32(fd))
	t.d.wire = append(t.d.wire, kind, 0, 0, 0, 0)
}

// addTCP appends sk's changed sections — all of them without history —
// to the round; a socket none of whose sections changed is cut back off
// the arena.
func (t *Tracker) addTCP(fd int, sk *netstack.TCPSocket) {
	netstack.SnapshotTCPInto(&t.snap, sk)
	var prev *[numSections]uint64
	if t.history {
		if prev = t.prevTCP[fd]; prev == nil {
			if t.prevTCP == nil {
				t.prevTCP = make(map[int]*[numSections]uint64)
			}
			prev = new([numSections]uint64)
			t.prevTCP[fd] = prev
		}
	}
	t.appendSockHdr(fd, 'T')
	sock, first := len(t.d.wire)-sockHdrBytes, len(t.secs)
	for id := netstack.SectionID(0); int(id) < numSections; id++ {
		if prev != nil {
			t.scratch = t.snap.AppendSectionHashBytes(t.scratch[:0], id)
			h := hashBytes(t.scratch)
			if h == prev[id] {
				continue
			}
			prev[id] = h
		}
		t.d.wire = append(t.d.wire, byte(id), 0, 0, 0, 0)
		at := len(t.d.wire)
		t.d.wire = t.snap.AppendSection(t.d.wire, id)
		binary.BigEndian.PutUint32(t.d.wire[at-4:], uint32(len(t.d.wire)-at))
		t.secs = append(t.secs, SectionUpdate{ID: id, Data: t.d.wire[at:]})
	}
	n := len(t.secs) - first
	if n == 0 {
		t.d.wire = t.d.wire[:sock]
		return
	}
	// The section count sits behind the FD and kind; a TCP socket ends
	// with an empty UDP snapshot.
	binary.BigEndian.PutUint32(t.d.wire[sock+5:], uint32(n))
	t.d.wire = append(t.d.wire, 0, 0, 0, 0)
	t.d.Socks = append(t.d.Socks, SockUpdate{FD: fd, Kind: 'T', Sections: t.secs[first:]})
}

// addUDP appends us's snapshot to the round if it changed.
func (t *Tracker) addUDP(fd int, us *netstack.UDPSocket) {
	snap := netstack.SnapshotUDP(us)
	if t.history {
		t.scratch = snap.AppendHashBytes(t.scratch[:0])
		h := hashBytes(t.scratch)
		if h == t.prevUDP[fd] {
			return
		}
		if t.prevUDP == nil {
			t.prevUDP = make(map[int]uint64)
		}
		t.prevUDP[fd] = h
	}
	t.appendSockHdr(fd, 'U')
	t.d.wire = append(t.d.wire, 0, 0, 0, 0) // no sections; the snapshot's length
	at := len(t.d.wire)
	t.d.wire = snap.AppendEncode(t.d.wire)
	binary.BigEndian.PutUint32(t.d.wire[at-4:], uint32(len(t.d.wire)-at))
	t.d.Socks = append(t.d.Socks, SockUpdate{FD: fd, Kind: 'U', UDPData: t.d.wire[at:]})
}

// lend fills in the socket count, points every update of the round at
// the final arena and sections array — an append during the round may
// have moved either — with capacities clipped, and returns the delta,
// its wire form the arena itself.
func (t *Tracker) lend() *SockDelta {
	if len(t.d.wire) > 0 {
		binary.BigEndian.PutUint32(t.d.wire[4:], uint32(len(t.d.Socks)))
	}
	off, next := deltaHdrBytes, 0
	take := func(n int) []byte {
		v := t.d.wire[off : off+n : off+n]
		off += n
		return v
	}
	for i := range t.d.Socks {
		su := &t.d.Socks[i]
		off += sockHdrBytes
		if su.Kind == 'U' {
			off += udpLenBytes
			su.UDPData = take(len(su.UDPData))
			continue
		}
		n := len(su.Sections)
		su.Sections = t.secs[next : next+n : next+n]
		next += n
		for j := range su.Sections {
			off += secHdrBytes
			su.Sections[j].Data = take(len(su.Sections[j].Data))
		}
		off += udpLenBytes
	}
	t.d.Round = t.round
	return &t.d
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

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// Store accumulates socket updates on the destination node across precopy
// rounds; at freeze time it materializes the sockets. Its maps are made
// on the first socket they hold, so a process without sockets costs the
// store nothing.
type Store struct {
	tcp map[int]*netstack.TCPSnapshot
	udp map[int]*netstack.UDPSnapshot
	// BytesApplied counts payload bytes folded in, per kind.
	BytesApplied uint64
	// decoded is ApplyEncoded's decode target: its arrays are reused
	// delta to delta, its bytes are the caller's.
	decoded []SockUpdate
}

// NewStore creates an empty accumulator.
func NewStore() *Store { return &Store{} }

// ApplyEncoded decodes one encoded delta and folds it in (see Apply).
// Nothing of b is read after it returns.
func (s *Store) ApplyEncoded(b []byte) error {
	d := SockDelta{Socks: s.decoded}
	err := decodeInto(&d, b)
	s.decoded = d.Socks
	if err != nil {
		return err
	}
	return s.Apply(&d)
}

// ErrNoIdentity is the cause Apply wraps when a delta brings a TCP
// socket the store does not hold yet without its identity section: the
// socket would be restored on the zero tuple. A tracker's first delta of
// a socket carries every section, identity included.
var ErrNoIdentity = errors.New("sockmig: new socket without an identity section")

// Apply folds one delta into the store, or returns an error and folds
// nothing: every section is checked before the first is applied, and a
// TCP socket the store did not hold before the delta must bring its
// identity (ErrNoIdentity). The store copies what it keeps, so d may be
// lent.
func (s *Store) Apply(d *SockDelta) error {
	for _, su := range d.Socks {
		switch su.Kind {
		case 'T':
			if s.tcp[su.FD] == nil && !slices.ContainsFunc(su.Sections, func(sec SectionUpdate) bool { return sec.ID == netstack.SecIdentity }) {
				return fmt.Errorf("sockmig: fd %d: %w", su.FD, ErrNoIdentity)
			}
			for _, sec := range su.Sections {
				if err := netstack.CheckSection(sec.ID, sec.Data); err != nil {
					return fmt.Errorf("sockmig: fd %d section %v: %w", su.FD, sec.ID, err)
				}
			}
		case 'U':
			if err := netstack.CheckUDPSnapshot(su.UDPData); err != nil {
				return fmt.Errorf("sockmig: fd %d udp: %w", su.FD, err)
			}
		default:
			return fmt.Errorf("sockmig: unknown socket kind %q", su.Kind)
		}
	}
	// Checked: nothing below can fail.
	for _, su := range d.Socks {
		if su.Kind == 'U' {
			if s.udp == nil {
				s.udp = make(map[int]*netstack.UDPSnapshot)
			}
			s.udp[su.FD], _ = netstack.DecodeUDPSnapshot(su.UDPData)
			s.BytesApplied += uint64(len(su.UDPData))
			continue
		}
		snap := s.tcp[su.FD]
		if snap == nil {
			if s.tcp == nil {
				s.tcp = make(map[int]*netstack.TCPSnapshot)
			}
			snap = &netstack.TCPSnapshot{}
			s.tcp[su.FD] = snap
		}
		for _, sec := range su.Sections {
			_ = snap.ApplySection(sec.ID, sec.Data)
			s.BytesApplied += uint64(len(sec.Data))
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
// descriptors. It returns the restored sockets by fd for reinjection
// bookkeeping; a map is nil when there is no socket of its kind.
func (s *Store) RestoreAll(st *netstack.Stack, p *proc.Process, opt RestoreOptions) (map[int]*netstack.TCPSocket, map[int]*netstack.UDPSocket, error) {
	var tcpOut map[int]*netstack.TCPSocket
	var udpOut map[int]*netstack.UDPSocket
	if len(s.tcp) > 0 {
		tcpOut = make(map[int]*netstack.TCPSocket, len(s.tcp))
	}
	if len(s.udp) > 0 {
		udpOut = make(map[int]*netstack.UDPSocket, len(s.udp))
	}
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
