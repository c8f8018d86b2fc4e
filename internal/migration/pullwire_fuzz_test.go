package migration

import (
	"bytes"
	"testing"
	"time"

	"dvemig/internal/ckpt"
	"dvemig/internal/netstack"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
)

// fakeDest impersonates a migration destination at the wire level: it
// listens on migd, acks the request, collects the post-image, announces
// a resume, and then lets the test inject arbitrary pull frames — the
// only way to hit the pull server with traffic a real destination would
// never send (duplicates, stale epochs, garbage).
type fakeDest struct {
	c    *proc.Cluster
	conn *Conn

	req     migrateReq
	chunks  chunkSink
	dir     *ckpt.PageDir
	gotImg  bool
	aborted []string
	// filled counts content deliveries per page across demand replies
	// AND prefetch pushes — the exactly-once ledger.
	filled map[ckpt.PageCoord]int
	resps  int
}

func newFakeDest(t *testing.T, c *proc.Cluster, node *proc.Node) *fakeDest {
	t.Helper()
	fd := &fakeDest{c: c, filled: make(map[ckpt.PageCoord]int)}
	lst := netstack.NewTCPSocket(node.Stack)
	if err := lst.Listen(node.LocalIP, MigdPort); err != nil {
		t.Fatal(err)
	}
	lst.OnAccept = func(ch *netstack.TCPSocket) {
		fd.conn = newConn(ch, nil, nil)
		fd.conn.funcs().onMsg = func(mt MsgType, payload []byte) { fd.onMsg(t, mt, payload) }
	}
	return fd
}

func (fd *fakeDest) onMsg(t *testing.T, mt MsgType, payload []byte) {
	switch mt {
	case MsgMigrateReq:
		req, err := decodeMigrateReq(payload)
		if err != nil {
			t.Fatalf("fakeDest: bad migrate req: %v", err)
		}
		fd.req = req
		fd.conn.Send(MsgMigrateAck, nil)
	case MsgChunk, MsgChunkEnd:
		kind, stream, done := fd.chunks.feed(t, mt, payload)
		if !done {
			return
		}
		pm, err := decodeFinalImage(kind, stream)
		if err != nil || kind != chunkKindPostImage {
			t.Fatalf("fakeDest: bad post image (kind %d): %v", kind, err)
		}
		dir, err := ckpt.DecodePageDir(pm.Mem)
		if err != nil {
			t.Fatalf("fakeDest: bad page dir: %v", err)
		}
		fd.dir, fd.gotImg = dir, true
		fd.conn.Send(MsgResumed, restoreDone{ResumeAt: fd.c.Sched.Now()}.encode())
	case MsgPageResp:
		resp, err := decodePageResp(payload)
		if err != nil {
			t.Fatalf("fakeDest: bad page resp: %v", err)
		}
		fd.resps++
		for _, pg := range resp.Pages {
			fd.filled[pg.Coord]++
		}
	case MsgAbort:
		fd.aborted = append(fd.aborted, string(payload))
	}
}

func (fd *fakeDest) pull(id uint32, epoch uint64, coords ...ckpt.PageCoord) {
	fd.conn.Send(MsgPageReq, pageReq{ID: id, Epoch: epoch, Coords: coords}.encode())
}

// pullEnv: node0 runs a real migrator with an 8-page process; node1 is
// the fake destination. Prefetch is disabled so every shipment the test
// sees is a reply to a frame it sent.
func pullEnv(t *testing.T, prefetch simtime.Duration) (*fakeDest, *Migrator, func() (*Metrics, error)) {
	t.Helper()
	c := proc.NewCluster(simtime.NewScheduler(), 2)
	cfg := DefaultConfig()
	cfg.Mig = Postcopy()
	cfg.EnableCapture = false
	cfg.PrefetchInterval = prefetch
	cfg.InboundLease = 3 * 1e9
	m, err := NewMigrator(c.Nodes[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := c.Nodes[0].Spawn("pull_target", 1)
	heap := p.AS.Mmap(8*proc.PageSize, "rw-")
	for i := uint64(0); i < 8; i++ {
		p.AS.Write(heap.Start+i*proc.PageSize, []byte{byte(i + 1)})
	}
	fd := newFakeDest(t, c, c.Nodes[1])
	var got *Metrics
	var gotErr error
	done := false
	m.Migrate(p, c.Nodes[1].LocalIP, func(mm *Metrics, err error) {
		got, gotErr, done = mm, err, true
	})
	c.Sched.RunFor(time.Second)
	if fd.conn == nil || !fd.gotImg {
		t.Fatal("handshake never reached the post-image")
	}
	wait := func() (*Metrics, error) {
		c.Sched.RunFor(30 * time.Second)
		if !done {
			t.Fatal("migration reached no terminal state")
		}
		return got, gotErr
	}
	return fd, m, wait
}

// TestDuplicatePullAnsweredOnce: the second pull of a page must come
// back empty (counted as a duplicate), never re-shipping content.
func TestDuplicatePullAnsweredOnce(t *testing.T) {
	fd, _, wait := pullEnv(t, 0)
	if len(fd.dir.Absent) != 8 {
		t.Fatalf("directory lists %d absent pages, want 8", len(fd.dir.Absent))
	}
	c0 := fd.dir.Absent[0]
	fd.pull(1, fd.req.Epoch, c0)
	fd.c.Sched.RunFor(100 * time.Millisecond)
	fd.pull(2, fd.req.Epoch, c0) // exact duplicate
	// And a request that is half dup, half fresh.
	fd.pull(3, fd.req.Epoch, c0, fd.dir.Absent[1])
	fd.c.Sched.RunFor(100 * time.Millisecond)
	for _, c := range fd.dir.Absent[2:] {
		fd.pull(4, fd.req.Epoch, c)
	}
	fd.c.Sched.RunFor(100 * time.Millisecond)
	fd.conn.Send(MsgPullsDone, pullsDone{LastFillAt: fd.c.Sched.Now()}.encode())
	m, err := wait()
	if err != nil {
		t.Fatalf("migration failed: %v", err)
	}
	for c, n := range fd.filled {
		if n != 1 {
			t.Fatalf("page %#x+%d shipped %d times", c.VMAStart, c.Index, n)
		}
	}
	if len(fd.filled) != 8 {
		t.Fatalf("%d distinct pages shipped, want 8", len(fd.filled))
	}
	if m.PullDuplicates != 2 {
		t.Fatalf("PullDuplicates = %d, want 2", m.PullDuplicates)
	}
	if m.PagesShipped != 8 || m.PagesDemand != 8 {
		t.Fatalf("accounting off: shipped=%d demand=%d", m.PagesShipped, m.PagesDemand)
	}
}

// TestStaleEpochPullFenced: a pull stamped with a superseded epoch
// means the puller's ownership was fenced by a failover — the server
// must refuse it with an abort, ship nothing, and reap its frozen
// shell rather than feed a zombie owner.
func TestStaleEpochPullFenced(t *testing.T) {
	fd, mig, wait := pullEnv(t, 0)
	fd.pull(1, fd.req.Epoch+7, fd.dir.Absent[0])
	m, err := wait()
	if err == nil {
		t.Fatal("stale-epoch pull was served")
	}
	if len(fd.aborted) == 0 {
		t.Fatal("no abort frame reached the stale puller")
	}
	if len(fd.filled) != 0 {
		t.Fatalf("%d pages shipped to a fenced puller", len(fd.filled))
	}
	if m == nil || !m.Aborted {
		t.Fatalf("metrics not flagged aborted: %+v", m)
	}
	// Post-handover failure: the source shell is reaped, never thawed.
	if findProcess(mig.Node, "pull_target") != nil {
		t.Fatal("fenced migration left the frozen shell attached")
	}
}

// TestNonResidentPullAborts: asking for a page outside the directory is
// a protocol violation; the server must abort, not panic or invent one.
func TestNonResidentPullAborts(t *testing.T) {
	fd, _, wait := pullEnv(t, 0)
	fd.pull(1, fd.req.Epoch, ckpt.PageCoord{VMAStart: 0xdead0000, Index: 99})
	if _, err := wait(); err == nil {
		t.Fatal("non-resident pull was served")
	}
}

// FuzzPullWire drives the whole pull protocol with a fuzz-chosen script
// of frames — valid pulls, duplicates, stale epochs, truncated and
// garbage frames, early completion — against a live pull server. The
// invariants: the server never panics, never ships a page's content
// twice, and always reaches exactly one terminal state.
func FuzzPullWire(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 5}) // clean drain then done
	f.Add([]byte{0, 0, 0})                   // duplicates
	f.Add([]byte{1})                         // stale epoch
	f.Add([]byte{2, 4, 3})                   // bogus coord, garbage, truncated
	f.Add([]byte{5, 0})                      // done before any pull
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		fd, _, wait := pullEnv(t, 0)
		next := 0 // cursor over the directory for "valid" ops
		var id uint32
		for _, op := range script {
			id++
			switch op % 6 {
			case 0: // valid pull of the next page (wraps to duplicates)
				c := fd.dir.Absent[int(next)%len(fd.dir.Absent)]
				next++
				fd.pull(id, fd.req.Epoch, c)
			case 1: // stale epoch
				fd.pull(id, fd.req.Epoch+uint64(op)+1, fd.dir.Absent[0])
			case 2: // non-resident coord
				fd.pull(id, fd.req.Epoch, ckpt.PageCoord{VMAStart: uint64(op) << 20, Index: uint64(op)})
			case 3: // truncated pull frame
				raw := pageReq{ID: id, Epoch: fd.req.Epoch, Coords: fd.dir.Absent[:1]}.encode()
				fd.conn.Send(MsgPageReq, raw[:len(raw)-1-int(op)%8])
			case 4: // garbage frame of a pull type
				fd.conn.Send(MsgPullsDone, []byte{op, op, op})
			case 5: // declare completion
				fd.conn.Send(MsgPullsDone, pullsDone{LastFillAt: fd.c.Sched.Now()}.encode())
			}
			fd.c.Sched.RunFor(20 * time.Millisecond)
		}
		wait() // asserts exactly one terminal state, no hang
		for c, n := range fd.filled {
			if n != 1 {
				t.Fatalf("page %#x+%d shipped %d times", c.VMAStart, c.Index, n)
			}
		}
	})
}

// FuzzPullDecoders feeds arbitrary bytes to the three pull-protocol
// decoders: no panic, and everything accepted must roundtrip.
func FuzzPullDecoders(f *testing.F) {
	f.Add(pageReq{ID: 1, Epoch: 2, Coords: []ckpt.PageCoord{{VMAStart: 0x1000, Index: 3}}}.encode())
	f.Add(pageResp{ID: 4, Pages: []respPage{{Coord: ckpt.PageCoord{VMAStart: 0x2000, Index: 1}, Data: []byte{9}}}}.encodeInto(nil))
	f.Add(pullsDone{LastFillAt: 5, Demand: 6, Prefetched: 7, StallNs: 8}.encode())
	f.Add(pageResp{}.encodeInto(nil)) // the empty reply to an all-duplicate pull
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if pr, err := decodePageReq(data); err == nil {
			back, err := decodePageReq(pr.encode())
			if err != nil || back.ID != pr.ID || back.Epoch != pr.Epoch || len(back.Coords) != len(pr.Coords) {
				t.Fatalf("pageReq roundtrip broken: %v", err)
			}
		}
		if resp, err := decodePageResp(data); err == nil {
			back, err := decodePageResp(resp.encodeInto(nil))
			if err != nil || back.ID != resp.ID || len(back.Pages) != len(resp.Pages) {
				t.Fatalf("pageResp roundtrip broken: %v", err)
			}
			for i := range resp.Pages {
				if back.Pages[i].Coord != resp.Pages[i].Coord ||
					len(back.Pages[i].Data) != len(resp.Pages[i].Data) {
					t.Fatalf("pageResp page %d mutated in roundtrip", i)
				}
			}
		}
		if pd, err := decodePullsDone(data); err == nil {
			if back, err := decodePullsDone(pd.encode()); err != nil || back != pd {
				t.Fatalf("pullsDone roundtrip broken: %v", err)
			}
		}
	})
}

// TestPageRespPadsLentFrame: a shipped page is a lent frame, the page up
// to the last line a store reached; the reply carries the whole page,
// its zero tail appended in the reply buffer, and a decoded page of
// any length re-encodes at its own length.
func TestPageRespPadsLentFrame(t *testing.T) {
	frame := make([]byte, proc.LineSize)
	frame[0], frame[proc.LineSize-1] = 3, 4
	c := ckpt.PageCoord{VMAStart: 0x4000, Index: 2}
	buf := pageResp{ID: 1, Pages: []respPage{{Coord: c, Data: frame, Len: proc.PageSize}}}.encodeInto(nil)
	if len(buf) != 8+20+proc.PageSize || cap(buf) != len(buf) {
		t.Fatalf("reply is %d bytes (cap %d), want one header and one page", len(buf), cap(buf))
	}
	resp, err := decodePageResp(buf)
	if err != nil || len(resp.Pages) != 1 || resp.Pages[0].Coord != c {
		t.Fatalf("decoded %+v, %v", resp, err)
	}
	want := append(bytes.Clone(frame), make([]byte, proc.PageSize-proc.LineSize)...)
	if !bytes.Equal(resp.Pages[0].Data, want) {
		t.Fatal("the shipped page is not the frame followed by zeros")
	}
	if again := resp.encodeInto(nil); !bytes.Equal(again, buf) {
		t.Fatal("a decoded page re-encodes differently")
	}
}
