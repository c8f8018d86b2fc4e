package sockmig

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"dvemig/internal/netstack"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
	"dvemig/internal/wire/wiretest"
)

// checkWire fails t unless d's wire form — the tracker's arena — is byte
// for byte what AppendEncode writes from d's fields.
func checkWire(t *testing.T, what string, d *SockDelta) {
	t.Helper()
	walked := (&SockDelta{Round: d.Round, Socks: d.Socks}).AppendEncode(nil)
	if got := d.Wire(); !bytes.Equal(got, walked) {
		t.Fatalf("%s: the arena's %d bytes differ from the %d AppendEncode writes", what, len(got), len(walked))
	}
}

// TestTrackerWireMatchesFieldEncoding: over seeded traffic — client and
// server sends, reads, locked sockets, datagrams, rounds cut while
// segments are in flight — every round a tracker lends, and every full,
// single-TCP and single-UDP delta along the way, is already its own
// encoding.
func TestTrackerWireMatchesFieldEncoding(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		env := newEnv(t, 12)
		n1 := env.c.Nodes[0]
		us := netstack.NewUDPSocket(n1.Stack)
		if err := us.Bind(env.c.ClusterIP, 27960); err != nil {
			t.Fatal(err)
		}
		env.p.FDs.Install(&proc.UDPFile{Sock: us})
		peer := netstack.NewUDPSocket(env.clients[0].Stack())
		peer.BindEphemeral(env.clients[0].LocalIP)
		tcp, _ := env.p.Sockets()
		tr := NewTracker()
		for round := 1; round <= 6; round++ {
			for i := rnd.Intn(8); i > 0; i-- {
				msg := make([]byte, 1+rnd.Intn(3*netstack.DefaultMSS))
				rnd.Read(msg)
				switch rnd.Intn(5) {
				case 0:
					_ = env.clients[rnd.Intn(len(env.clients))].Send(msg)
				case 1:
					_ = tcp[rnd.Intn(len(tcp))].Send(msg)
				case 2:
					tcp[rnd.Intn(len(tcp))].Discard()
				case 3:
					_ = peer.SendTo(env.c.ClusterIP, 27960, msg[:min(len(msg), 512)])
				case 4:
					if sk := tcp[rnd.Intn(len(tcp))]; sk.Locked() {
						sk.Unlock()
					} else {
						sk.Lock()
					}
				}
			}
			env.c.Sched.RunFor(time.Duration(rnd.Intn(3000)) * time.Microsecond)
			what := fmt.Sprintf("seed %d round %d", seed, round)
			checkWire(t, what, tr.Delta(env.p, round == 6))
			checkWire(t, what+" full", FullDelta(env.p))
			sk := tcp[rnd.Intn(len(tcp))]
			checkWire(t, what+" single tcp", SingleTCP(FDOf(env.p, sk), sk))
			checkWire(t, what+" single udp", SingleUDP(FDOfUDP(env.p, us), us))
		}
	}
}

// TestTrackerWireOverFuzzCorpus: the socket states FuzzSockDelta's
// committed corpus and seeds build — each entry's deltas, and the
// scripted rounds, folded in turn into a store — restored into a process
// after every fold, ship an arena equal to their field-by-field
// encoding, on a tracker's first round and on a full delta.
func TestTrackerWireOverFuzzCorpus(t *testing.T) {
	var sequences [][][]byte
	for _, args := range wiretest.Corpus(t, "FuzzSockDelta") {
		sequences = append(sequences, [][]byte{args[0].([]byte), args[1].([]byte)})
	}
	sequences = append(sequences, scriptedDeltaRounds(t))
	restore := func(what string, s *Store) {
		c := proc.NewCluster(simtime.NewScheduler(), 1)
		q := c.Nodes[0].Spawn("restored", 1)
		if _, _, err := s.RestoreAll(c.Nodes[0].Stack, q, RestoreOptions{}); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		checkWire(t, what, NewTracker().Delta(q, true))
		checkWire(t, what+", full", FullDelta(q))
	}
	restored := 0
	for i, seq := range sequences {
		store := NewStore()
		for j, in := range seq {
			if store.ApplyEncoded(in) != nil {
				break
			}
			// One socket per process: a hostile delta may give two
			// sockets one tuple, which they cannot share on one stack.
			for fd, snap := range store.tcp {
				restore(fmt.Sprintf("sequence %d, delta %d, tcp fd %d", i, j, fd), &Store{tcp: map[int]*netstack.TCPSnapshot{fd: snap}})
				restored++
			}
			for fd, snap := range store.udp {
				restore(fmt.Sprintf("sequence %d, delta %d, udp fd %d", i, j, fd), &Store{udp: map[int]*netstack.UDPSnapshot{fd: snap}})
				restored++
			}
		}
	}
	if restored == 0 {
		t.Fatal("no socket state restored")
	}
}

// TestStoreRefusesSocketWithoutIdentity: a delta that brings a TCP
// socket the store does not hold without its identity section is
// refused whole, before anything is stored — restored, such a socket
// sits on the zero tuple, and two of them collide only at restore. The
// committed FuzzSockDelta entry's first delta is one (its sockets carry
// no identity); so are a tracker's first round of two sockets with both
// identities stripped, or only the second's. Once the store holds the
// sockets, a round without their identities is an ordinary incremental
// one.
func TestStoreRefusesSocketWithoutIdentity(t *testing.T) {
	refused := func(what string, apply func(*Store) error) {
		t.Helper()
		store := NewStore()
		if err := apply(store); !errors.Is(err, ErrNoIdentity) {
			t.Fatalf("%s: Apply returned %v, want ErrNoIdentity", what, err)
		}
		if store.TCPCount() != 0 || store.UDPCount() != 0 || store.BytesApplied != 0 {
			t.Fatalf("%s: refused, yet the store holds %d tcp / %d udp / %d bytes", what, store.TCPCount(), store.UDPCount(), store.BytesApplied)
		}
	}
	corpus := wiretest.Corpus(t, "FuzzSockDelta")
	if len(corpus) == 0 {
		t.Fatal("no committed FuzzSockDelta entry")
	}
	for i, args := range corpus {
		refused(fmt.Sprintf("corpus entry %d", i), func(s *Store) error { return s.ApplyEncoded(args[0].([]byte)) })
	}

	env := newEnv(t, 2)
	full := FullDelta(env.p)
	var two []SockUpdate
	for _, su := range full.Socks {
		if su.Kind == 'T' && len(two) < 2 {
			two = append(two, su)
		}
	}
	if len(two) != 2 {
		t.Fatalf("%d TCP sockets in the full delta, want at least 2", len(two))
	}
	// strip returns the two sockets' update, the identity section taken
	// out of those picked.
	strip := func(pick ...bool) *SockDelta {
		d := &SockDelta{Round: full.Round}
		for i, su := range two {
			if pick[i] {
				su.Sections = slices.DeleteFunc(slices.Clone(su.Sections), func(sec SectionUpdate) bool { return sec.ID == netstack.SecIdentity })
			}
			d.Socks = append(d.Socks, su)
		}
		return d
	}
	refused("two sockets, neither identity", func(s *Store) error { return s.Apply(strip(true, true)) })
	refused("two sockets, the second's identity stripped", func(s *Store) error { return s.ApplyEncoded(strip(false, true).Encode()) })

	store := NewStore()
	if err := store.Apply(strip(false, false)); err != nil {
		t.Fatal(err)
	}
	if err := store.Apply(strip(true, true)); err != nil {
		t.Fatalf("a round without the identities of held sockets: %v", err)
	}
	q := env.c.Nodes[1].Spawn("restored", 1)
	tcp, _, err := store.RestoreAll(env.c.Nodes[1].Stack, q, RestoreOptions{})
	if err != nil || len(tcp) != 2 {
		t.Fatalf("restoring the two sockets: %d restored, %v", len(tcp), err)
	}
}

// TestTrackerLendsWire: the arena is lent like the sections in it — the
// package's tests run with the tripwire on, so a wire form kept past the
// next Delta reads 0xDB beyond what that round wrote.
func TestTrackerLendsWire(t *testing.T) {
	env := newEnv(t, 2)
	tr := NewTracker()
	kept := tr.Delta(env.p, false).Wire()
	if bytes.Count(kept, []byte{0xDB}) == len(kept) {
		t.Fatal("a fresh wire form is already poisoned")
	}
	next := tr.Delta(env.p, false)
	if !next.Empty() {
		t.Fatal("quiescent round shipped sockets")
	}
	// A round that meets sockets writes its header and each socket's,
	// cutting an unchanged socket back off the arena, so the quiescent
	// round overwrote the first header and one socket header's worth.
	written := deltaHdrBytes + sockHdrBytes
	if len(next.Wire()) != deltaHdrBytes || bytes.Count(kept[written:], []byte{0xDB}) != len(kept)-written {
		t.Fatal("a wire form kept past the next Delta was not poisoned")
	}
}

// TestTrackerReleaseGivesArena: an arena of the wire pool's sizes goes
// back to the pool on Release — the package runs with the pool's
// tripwire on, so a wire form kept past it reads 0xDB — and a tracker
// that scans again reserves a new one.
func TestTrackerReleaseGivesArena(t *testing.T) {
	env := newEnv(t, 24)
	tr := NewTracker()
	kept := tr.Delta(env.p, false).Wire()
	if len(kept) < 64<<10 {
		t.Fatalf("a %d-byte first round: the fixture no longer reaches the pool's sizes", len(kept))
	}
	tr.Release()
	if bytes.Count(kept, []byte{0xDB}) != len(kept) {
		t.Fatal("a wire form kept past Release was not poisoned")
	}
	if d := tr.Delta(env.p, false); !d.Empty() || cap(tr.d.wire) < len(kept) {
		t.Fatalf("the round after Release: %d sockets in a %d-byte arena", len(d.Socks), cap(tr.d.wire))
	}
}

// sockDeltaAllocK bounds what a store allocates per input byte when it
// folds a delta in. Section bytes cost about their own size (the
// scripted rounds read 0.15–1.13 B per byte), but a socket costs the
// snapshot the store keeps for it and its map entry however short it is:
// a thousand 13-byte sockets without sections read 26.8 B per byte, the
// densest input there is. sockDeltaAllocSlack covers the maps' first
// buckets, a small input's size-class rounding, and an error's text —
// which costs fmt a fresh printer when a collection has just emptied its
// pool.
const (
	sockDeltaAllocK     = 32
	sockDeltaAllocSlack = 64 << 10
)

// TestAllocGateSockDeltaCorpus: every FuzzSockDelta corpus entry and
// seed, and a thousand sockets without sections, folded into a fresh
// store, allocates in proportion to its bytes: nothing a count or length
// in the input claims is reserved on its say.
func TestAllocGateSockDeltaCorpus(t *testing.T) {
	var inputs [][]byte
	for _, args := range wiretest.Corpus(t, "FuzzSockDelta") {
		inputs = append(inputs, args[0].([]byte), args[1].([]byte))
	}
	inputs = append(inputs, scriptedDeltaRounds(t)...)
	empty := &SockDelta{Round: 1}
	for fd := range 1000 {
		empty.Socks = append(empty.Socks, SockUpdate{FD: fd, Kind: 'T'})
	}
	inputs = append(inputs, empty.Encode())
	for i, in := range inputs {
		b := append([]byte(nil), in...)
		wiretest.CheckAllocBound(t, fmt.Sprintf("input %d", i), len(b), sockDeltaAllocK, sockDeltaAllocSlack, func() {
			_ = NewStore().ApplyEncoded(b)
		})
	}
}
