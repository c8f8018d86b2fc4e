package migration

import (
	"bytes"
	"hash/fnv"
	"testing"
	"time"

	"dvemig/internal/proc"
	"dvemig/internal/simtime"
)

// TestChunkStreamCarriesThePayload pins that chunking is a transport
// concern: for every stream of a real migration the bytes the
// destination reassembles are the bytes the source encoded, under the
// kind it sent them as. What is shipped — rounds, payload bytes, the
// restored heap — is pinned to what this scenario read at e5dadc0, in
// the monolithic, the 512-byte and the 64 KiB run alike.
func TestChunkStreamCarriesThePayload(t *testing.T) {
	sent, got := watchStreams(t)
	e := newEnv(t, 2, 4, DefaultConfig())
	heapStart := e.p.AS.VMAs()[0].Start
	m := e.migrate(t, 1)

	if len(*sent) < 2 || len(*got) != len(*sent) {
		t.Fatalf("%d streams sent, %d reassembled; want at least a round and the final image, all delivered", len(*sent), len(*got))
	}
	for i, s := range *sent {
		if !bytes.Equal(s, (*got)[i]) {
			t.Errorf("stream %d (kind %d, %d bytes): reassembled bytes differ from the encoded ones", i, s[0], len(s)-1)
		}
	}
	if last := (*sent)[len(*sent)-1]; last[0] != chunkKindFreeze {
		t.Errorf("last stream has kind %d, want the freeze image", last[0])
	}
	if m.Rounds != 5 || m.PrecopyMemBytes != 2570 || m.FreezeMemBytes != 48 || m.MemPageBytes != 352256 {
		t.Errorf("shipped Rounds=%d PrecopyMemBytes=%d FreezeMemBytes=%d MemPageBytes=%d, want 5 / 2570 / 48 / 352256",
			m.Rounds, m.PrecopyMemBytes, m.FreezeMemBytes, m.MemPageBytes)
	}
	p := findProcess(e.c.Nodes[1], "zone_serv1")
	if p == nil {
		t.Fatal("process not on destination")
	}
	heap, err := p.AS.Read(heapStart, int(256*proc.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(heap)
	if h.Sum64() != 0xc67677fa2cf42838 {
		t.Errorf("restored heap FNV-64a = %#x, want 0xc67677fa2cf42838", h.Sum64())
	}
}

// quiescentEnv: a two-node cluster with an idle process — it ticks but
// never touches memory, so every precopy round after the first is empty.
func quiescentEnv(t *testing.T, cfg Config) (*proc.Cluster, []*Migrator, *proc.Process) {
	t.Helper()
	c := proc.NewCluster(simtime.NewScheduler(), 2)
	var migs []*Migrator
	for _, n := range c.Nodes {
		m, err := NewMigrator(n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		migs = append(migs, m)
	}
	p := c.Nodes[0].Spawn("idle_serv", 1)
	heap := p.AS.Mmap(32*proc.PageSize, "rw-")
	for i := uint64(0); i < 32; i++ {
		p.AS.Write(heap.Start+i*proc.PageSize, []byte{byte(i + 1), 0xEE})
	}
	p.Tick = func(self *proc.Process) {} // alive but quiescent
	c.Nodes[0].StartLoop(p, 50*time.Millisecond)
	c.Sched.RunFor(100 * time.Millisecond)
	return c, migs, p
}

// TestQuiescentRoundShipsNothing is the regression test for the
// empty-delta bug: shipDeltaRound used to send a MsgMemDelta frame even
// when the delta was empty, so every quiescent round paid wire framing
// and delta headers. Now a longer precopy schedule (more empty rounds)
// must ship exactly the same bytes as a short one.
func TestQuiescentRoundShipsNothing(t *testing.T) {
	migrate := func(initial simtime.Duration) *Metrics {
		cfg := DefaultConfig()
		cfg.InitialTimeout = initial
		c, migs, p := quiescentEnv(t, cfg)
		var got *Metrics
		var gotErr error
		done := false
		migs[0].Migrate(p, c.Nodes[1].LocalIP, func(m *Metrics, err error) {
			got, gotErr, done = m, err, true
		})
		c.Sched.RunFor(30 * time.Second)
		if !done {
			t.Fatal("migration never completed")
		}
		if gotErr != nil {
			t.Fatalf("migration failed: %v", gotErr)
		}
		if findProcess(c.Nodes[1], "idle_serv") == nil {
			t.Fatal("process not on destination")
		}
		return got
	}
	short := migrate(320 * 1e6) // 320ms: few precopy rounds
	long := migrate(2560 * 1e6) // 2.56s: three more halvings, all empty
	if long.Rounds <= short.Rounds {
		t.Fatalf("long schedule ran %d rounds, short ran %d — test is not adding empty rounds",
			long.Rounds, short.Rounds)
	}
	if long.PrecopyMemBytes != short.PrecopyMemBytes {
		t.Fatalf("empty rounds shipped delta bytes: long=%d short=%d",
			long.PrecopyMemBytes, short.PrecopyMemBytes)
	}
	if long.MemPageBytes != short.MemPageBytes {
		t.Fatalf("empty rounds shipped page content: long=%d short=%d",
			long.MemPageBytes, short.MemPageBytes)
	}
}

// TestPipelineShipsEveryDirtyPageOnce runs the chunked pipeline against
// a shadow ledger, on a heap whose first 96 pages are incompressible so
// that round 1 is a real multi-frame stream (384 KiB: six frames, the
// window yields once): at each precopy round the test notes what the
// tracker is about to ship (all resident pages in round 1, the dirty
// set afterwards), and at freeze it notes the final dirty set plus a
// snapshot of the source heap. The engine's MemPageBytes must equal the
// ledger exactly — every dirty page shipped exactly once per round it
// was dirty in, nothing skipped, nothing shipped twice — and the
// destination heap must equal the freeze-time snapshot.
func TestPipelineShipsEveryDirtyPageOnce(t *testing.T) {
	sent, _ := watchStreams(t)
	e := newEnv(t, 2, 4, DefaultConfig())
	heapStart := e.p.AS.VMAs()[0].Start
	rng := simtime.NewRand(96)
	noise := make([]byte, proc.PageSize)
	for pg := uint64(0); pg < 96; pg++ {
		for i := range noise {
			noise[i] = byte(rng.Uint64())
		}
		if err := e.p.AS.Write(heapStart+pg*proc.PageSize, noise); err != nil {
			t.Fatal(err)
		}
	}

	var ledger uint64
	var frozenHeap []byte
	srcNode := e.c.Nodes[0].Name
	e.migrators[0].OnPhase = func(ev PhaseEvent) {
		if ev.Node != srcNode || ev.PID != e.p.PID {
			return
		}
		switch ev.Phase {
		case PhasePrecopy:
			if ev.Round == 1 {
				ledger += e.p.AS.ResidentBytes()
			} else {
				ledger += proc.PageSize * uint64(len(e.p.AS.DirtyPages()))
			}
		case PhaseFreeze:
			ledger += proc.PageSize * uint64(len(e.p.AS.DirtyPages()))
			h, err := e.p.AS.Read(heapStart, int(256*proc.PageSize))
			if err != nil {
				t.Errorf("freeze snapshot: %v", err)
			}
			frozenHeap = h
		}
	}
	var arrivedHeap []byte
	e.migrators[1].OnArrived = func(p *proc.Process, _ *Metrics) {
		h, err := p.AS.Read(heapStart, int(256*proc.PageSize))
		if err != nil {
			t.Errorf("arrival snapshot: %v", err)
		}
		arrivedHeap = h
	}

	m := e.migrate(t, 1)
	if ledger == 0 || frozenHeap == nil || arrivedHeap == nil {
		t.Fatal("phase hooks never fired")
	}
	if n := len((*sent)[0]) - 1; n <= chunkWindow*chunkBytes {
		t.Fatalf("round 1 encoded to %d bytes: not enough to exceed one %d-frame window", n, chunkWindow)
	}
	if m.MemPageBytes != ledger {
		t.Fatalf("MemPageBytes=%d, shadow ledger=%d — pages skipped or double-shipped",
			m.MemPageBytes, ledger)
	}
	if !bytes.Equal(frozenHeap, arrivedHeap) {
		t.Fatal("destination heap differs from the freeze-time source heap")
	}
	// The checkpoint stream must ride its own traffic class: the source
	// NIC counts at least the encoded delta payloads, and on this
	// lossless fabric the destination sees every byte the source sent.
	tx := e.c.Nodes[0].LocalNIC.CkptTxBytes
	rx := e.c.Nodes[1].LocalNIC.CkptRxBytes
	if enc := m.PrecopyMemBytes + m.FreezeMemBytes; tx < enc || rx != tx {
		t.Fatalf("checkpoint class accounting: tx=%d rx=%d, encoded payload %d",
			tx, rx, enc)
	}
}
