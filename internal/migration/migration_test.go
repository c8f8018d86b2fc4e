package migration

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"dvemig/internal/netsim"
	"dvemig/internal/netstack"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
	"dvemig/internal/sockmig"
)

// env is a cluster where every node runs a migrator, plus a DB server on
// the last node and a set of external TCP clients streaming to a zone
// process on node1.
type env struct {
	c         *proc.Cluster
	migrators []*Migrator
	p         *proc.Process
	clients   []*netstack.TCPSocket
	dbPeer    *netstack.TCPSocket
	received  *bytes.Buffer // all bytes the zone app consumed, in order per client
}

func newEnv(t *testing.T, nodes, nClients int, cfg Config) *env {
	t.Helper()
	e := &env{c: proc.NewCluster(simtime.NewScheduler(), nodes), received: &bytes.Buffer{}}
	for _, n := range e.c.Nodes {
		m, err := NewMigrator(n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.migrators = append(e.migrators, m)
	}
	n1 := e.c.Nodes[0]
	e.p = n1.Spawn("zone_serv1", 2)
	heap := e.p.AS.Mmap(256*proc.PageSize, "rw-")
	for i := uint64(0); i < 256; i += 4 {
		e.p.AS.Write(heap.Start+i*proc.PageSize, []byte{byte(i), 0xCD})
	}
	e.p.FDs.Install(&proc.RegularFile{Path: "/srv/world.map", Offset: 128})

	// Listener for game clients on the cluster IP.
	lst := netstack.NewTCPSocket(n1.Stack)
	if err := lst.Listen(e.c.ClusterIP, 7777); err != nil {
		t.Fatal(err)
	}
	var accepted []*netstack.TCPSocket
	lst.OnAccept = func(ch *netstack.TCPSocket) { accepted = append(accepted, ch) }
	e.p.FDs.Install(&proc.TCPFile{Sock: lst})

	ext := e.c.NewExternalHost("players")
	for i := 0; i < nClients; i++ {
		cli := netstack.NewTCPSocket(ext)
		if err := cli.Connect(e.c.ClusterIP, 7777); err != nil {
			t.Fatal(err)
		}
		e.clients = append(e.clients, cli)
	}
	// DB session to the last node.
	dbNode := e.c.Nodes[nodes-1]
	dbl := netstack.NewTCPSocket(dbNode.Stack)
	if err := dbl.Listen(dbNode.LocalIP, 3306); err != nil {
		t.Fatal(err)
	}
	dbl.OnAccept = func(ch *netstack.TCPSocket) { e.dbPeer = ch }
	db := netstack.NewTCPSocket(n1.Stack)
	if err := db.Connect(dbNode.LocalIP, 3306); err != nil {
		t.Fatal(err)
	}
	e.c.Sched.RunFor(time.Second)
	if len(accepted) != nClients || e.dbPeer == nil {
		t.Fatalf("setup: accepted=%d db=%v", len(accepted), e.dbPeer)
	}
	for _, sk := range accepted {
		e.p.FDs.Install(&proc.TCPFile{Sock: sk})
	}
	e.p.FDs.Install(&proc.TCPFile{Sock: db})

	// The app: a polling real-time loop that drains every socket, dirties
	// some memory, and pings the database. The closure travels with the
	// process (program text is on every node).
	received := e.received
	counter := 0
	e.p.Tick = func(self *proc.Process) {
		counter++
		tcp, _ := self.Sockets()
		for _, sk := range tcp {
			if data := sk.Recv(); len(data) > 0 {
				received.Write(data)
			}
		}
		self.AS.Touch(heap.Start + uint64(counter%256)*proc.PageSize)
		// Ping the DB via the last TCP fd (the db connection).
		if len(tcp) > 0 {
			_ = tcp[len(tcp)-1].Send([]byte("ping;"))
		}
	}
	e.p.CPUDemand = 0.4
	n1.StartLoop(e.p, 50*time.Millisecond)
	e.c.Sched.RunFor(200 * time.Millisecond)
	return e
}

// migrate runs a migration from node1 to dst and returns the metrics.
func (e *env) migrate(t *testing.T, dstIdx int) *Metrics {
	t.Helper()
	var got *Metrics
	var gotErr error
	done := false
	e.migrators[0].Migrate(e.p, e.c.Nodes[dstIdx].LocalIP, func(m *Metrics, err error) {
		got, gotErr, done = m, err, true
	})
	e.c.Sched.RunFor(10 * time.Second)
	if !done {
		t.Fatal("migration never completed")
	}
	if gotErr != nil {
		t.Fatalf("migration failed: %v", gotErr)
	}
	return got
}

func findProcess(n *proc.Node, name string) *proc.Process {
	for _, p := range n.Processes() {
		if p.Name == name {
			return p
		}
	}
	return nil
}

func TestLiveMigrationEndToEnd(t *testing.T) {
	for _, strat := range []sockmig.Strategy{sockmig.Iterative, sockmig.Collective, sockmig.IncrementalCollective} {
		t.Run(strat.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Strategy = strat
			e := newEnv(t, 3, 8, cfg)
			origPID := e.p.PID
			var regs []proc.Registers
			for _, th := range e.p.Threads {
				regs = append(regs, th.Regs)
			}
			memBefore, _ := e.p.AS.Read(e.p.AS.VMAs()[0].Start, 64*proc.PageSize)

			// Clients stream during the whole migration.
			var sent [][]byte
			var tickers []*simtime.Ticker
			for i, cli := range e.clients {
				i, cli := i, cli
				sent = append(sent, nil)
				tk := simtime.NewTicker(e.c.Sched, 40*time.Millisecond, "cli", func() {
					msg := []byte(fmt.Sprintf("c%d.%d;", i, len(sent[i])))
					sent[i] = append(sent[i], msg...)
					cli.Send(msg)
				})
				tk.Start()
				tickers = append(tickers, tk)
			}
			e.c.Sched.RunFor(300 * time.Millisecond)

			m := e.migrate(t, 1)
			dst := e.c.Nodes[1]
			q := findProcess(dst, "zone_serv1")
			if q == nil {
				t.Fatal("process did not arrive on destination")
			}
			if q.PID != origPID {
				t.Fatalf("PID changed: %d -> %d", origPID, q.PID)
			}
			if len(q.Threads) != 2 {
				t.Fatal("thread count lost")
			}
			for i, th := range q.Threads {
				if th.Regs != regs[i] {
					t.Fatal("registers corrupted")
				}
			}
			// Memory written before migration must be intact (pages
			// touched by ticks after the read are beyond the checked
			// region prefix only if counter stayed within it; compare
			// the untouched tail instead: bytes at offset 1 of each page
			// were only written at setup).
			memAfter, err := q.AS.Read(q.AS.VMAs()[0].Start, 64*proc.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			for pg := 0; pg < 64; pg += 4 {
				if memBefore[pg*proc.PageSize+1] != 0xCD || memAfter[pg*proc.PageSize+1] != 0xCD {
					t.Fatalf("memory corrupted at page %d", pg)
				}
			}
			if m.TCPMigrated != 10 { // 8 clients + listener + db
				t.Fatalf("TCPMigrated = %d, want 10", m.TCPMigrated)
			}
			if m.FreezeTime <= 0 || m.FreezeTime > 500*time.Millisecond {
				t.Fatalf("freeze time implausible: %v", m.FreezeTime)
			}
			// The process left the source.
			if findProcess(e.c.Nodes[0], "zone_serv1") != nil {
				t.Fatal("process still on source")
			}
			// Loop continues on destination and keeps consuming client
			// streams without loss or reordering. Stop the streams, then
			// let everything in flight drain before comparing.
			e.c.Sched.RunFor(2 * time.Second)
			for _, tk := range tickers {
				tk.Stop()
			}
			e.c.Sched.RunFor(time.Second)
			all := e.received.Bytes()
			for i := range e.clients {
				want := sent[i]
				got := extractClient(all, i)
				if !bytes.Equal(got, want) {
					t.Fatalf("client %d stream mismatch: got %d bytes, want %d\n got=%q\nwant=%q",
						i, len(got), len(want), trunc(got), trunc(want))
				}
			}
			// DB connection still alive: the dest app pings; peer sees data.
			dbGot := e.dbPeer.Recv()
			if !bytes.Contains(dbGot, []byte("ping;")) {
				t.Fatal("db connection dead after migration")
			}
		})
	}
}

// extractClient pulls the "c<i>.*;" tokens for one client from the
// interleaved stream, preserving order.
func extractClient(all []byte, i int) []byte {
	var out []byte
	prefix := []byte(fmt.Sprintf("c%d.", i))
	for _, tok := range bytes.Split(all, []byte(";")) {
		if bytes.HasPrefix(tok, prefix) {
			out = append(out, tok...)
			out = append(out, ';')
		}
	}
	return out
}

func trunc(b []byte) []byte {
	if len(b) > 120 {
		return b[:120]
	}
	return b
}

func TestFreezeTimeOrderingAcrossStrategies(t *testing.T) {
	freeze := map[sockmig.Strategy]time.Duration{}
	for _, strat := range []sockmig.Strategy{sockmig.Iterative, sockmig.Collective, sockmig.IncrementalCollective} {
		cfg := DefaultConfig()
		cfg.Strategy = strat
		e := newEnv(t, 2, 128, cfg)
		m := e.migrate(t, 1)
		freeze[strat] = m.FreezeTime
	}
	if !(freeze[sockmig.Iterative] > freeze[sockmig.Collective]) {
		t.Fatalf("iterative %v not slower than collective %v",
			freeze[sockmig.Iterative], freeze[sockmig.Collective])
	}
	if !(freeze[sockmig.Collective] > freeze[sockmig.IncrementalCollective]) {
		t.Fatalf("collective %v not slower than incremental %v",
			freeze[sockmig.Collective], freeze[sockmig.IncrementalCollective])
	}
}

func TestFreezeBytesIncrementalMuchSmaller(t *testing.T) {
	var full, inc uint64
	{
		cfg := DefaultConfig()
		cfg.Strategy = sockmig.Collective
		e := newEnv(t, 2, 64, cfg)
		full = e.migrate(t, 1).FreezeSockBytes
	}
	{
		cfg := DefaultConfig()
		e := newEnv(t, 2, 64, cfg)
		inc = e.migrate(t, 1).FreezeSockBytes
	}
	if inc*4 > full {
		t.Fatalf("incremental freeze bytes %d not ≪ collective %d", inc, full)
	}
}

func TestCapturePreventsRetransmission(t *testing.T) {
	run := func(enableCapture bool) (retrans uint64, captured uint32) {
		cfg := DefaultConfig()
		cfg.EnableCapture = enableCapture
		e := newEnv(t, 2, 4, cfg)
		// Clients hammer during migration so packets land in the freeze
		// window.
		tk := simtime.NewTicker(e.c.Sched, 500*time.Microsecond, "spam", func() {
			for _, cli := range e.clients {
				cli.Send([]byte("x"))
			}
		})
		tk.Start()
		defer tk.Stop()
		m := e.migrate(t, 1)
		for _, cli := range e.clients {
			retrans += cli.Retransmits
		}
		return retrans, m.Captured
	}
	retransWith, captured := run(true)
	if captured == 0 {
		t.Fatal("capture saw no packets despite client spam during freeze")
	}
	if retransWith != 0 {
		t.Fatalf("capture enabled but clients retransmitted %d times", retransWith)
	}
	retransWithout, _ := run(false)
	if retransWithout == 0 {
		t.Fatal("without capture, freeze-window packets should be lost and retransmitted")
	}
}

func TestMigrationToUnreachableNodeFails(t *testing.T) {
	cfg := DefaultConfig()
	e := newEnv(t, 2, 2, cfg)
	var gotErr error
	done := false
	// 192.168.1.99 has no node.
	e.migrators[0].Migrate(e.p, proc.LocalNet+99, func(m *Metrics, err error) {
		gotErr, done = err, true
	})
	e.c.Sched.RunFor(30 * time.Second)
	if !done || gotErr == nil {
		t.Fatal("migration to unreachable node did not fail")
	}
	if e.p.State != proc.ProcRunning {
		t.Fatal("process not left running after failed migration")
	}
	// And it can still migrate successfully afterwards.
	m := e.migrate(t, 1)
	if m.FreezeTime <= 0 {
		t.Fatal("follow-up migration broken")
	}
}

func TestDoubleMigrationKeepsInClusterConnection(t *testing.T) {
	cfg := DefaultConfig()
	e := newEnv(t, 4, 2, cfg) // db on node4
	e.migrate(t, 1)           // node1 -> node2
	// Re-point the engine handle: process now lives on node2.
	p2 := findProcess(e.c.Nodes[1], "zone_serv1")
	if p2 == nil {
		t.Fatal("not on node2")
	}
	e.p = p2
	var done bool
	var gotErr error
	e.migrators[1].Migrate(p2, e.c.Nodes[2].LocalIP, func(m *Metrics, err error) { done, gotErr = true, err })
	e.c.Sched.RunFor(10 * time.Second)
	if !done || gotErr != nil {
		t.Fatalf("second migration: done=%v err=%v", done, gotErr)
	}
	p3 := findProcess(e.c.Nodes[2], "zone_serv1")
	if p3 == nil {
		t.Fatal("not on node3")
	}
	// The DB connection (peer on node4) must still work after two hops.
	before := e.dbPeer.BytesIn
	e.c.Sched.RunFor(time.Second)
	if e.dbPeer.BytesIn <= before {
		t.Fatal("db peer receives nothing after double migration")
	}
	// The peer's translation daemon holds exactly one rule for the flow
	// (retargeted, not stacked).
	rules := e.migrators[3].Transd.Translator().Rules()
	if len(rules) != 1 {
		t.Fatalf("peer rules = %d, want 1 retargeted rule: %v", len(rules), rules)
	}
	if rules[0].NewAddr != e.c.Nodes[2].LocalIP || rules[0].OldAddr != e.c.Nodes[0].LocalIP {
		t.Fatalf("rule not retargeted to node3 keyed on node1: %v", rules[0])
	}
}

func TestStopAndCopyAblation(t *testing.T) {
	pre := DefaultConfig()
	stop := DefaultConfig()
	stop.EnablePrecopy = false
	var preM, stopM *Metrics
	{
		e := newEnv(t, 2, 8, pre)
		preM = e.migrate(t, 1)
	}
	{
		e := newEnv(t, 2, 8, stop)
		stopM = e.migrate(t, 1)
	}
	if stopM.Rounds != 0 {
		t.Fatalf("stop-and-copy ran %d precopy rounds", stopM.Rounds)
	}
	if preM.Rounds < 3 {
		t.Fatalf("precopy rounds = %d", preM.Rounds)
	}
	// Stop-and-copy moves all memory inside the freeze window.
	if stopM.FreezeMemBytes <= preM.FreezeMemBytes {
		t.Fatalf("stop-and-copy freeze mem %d not larger than precopy %d",
			stopM.FreezeMemBytes, preM.FreezeMemBytes)
	}
	if stopM.FreezeTime <= preM.FreezeTime {
		t.Fatalf("stop-and-copy freeze %v not longer than precopy %v",
			stopM.FreezeTime, preM.FreezeTime)
	}
}

func TestUDPSocketMigration(t *testing.T) {
	cfg := DefaultConfig()
	e := newEnv(t, 2, 1, cfg)
	us := netstack.NewUDPSocket(e.c.Nodes[0].Stack)
	if err := us.Bind(e.c.ClusterIP, 27960); err != nil {
		t.Fatal(err)
	}
	e.p.FDs.Install(&proc.UDPFile{Sock: us})
	ext := e.c.NewExternalHost("udp-player")
	extAddr, _ := ext.SourceAddrFor(e.c.ClusterIP)
	uc := netstack.NewUDPSocket(ext)
	uc.BindEphemeral(extAddr)
	sentN := 0
	tk := simtime.NewTicker(e.c.Sched, 10*time.Millisecond, "udp-spam", func() {
		uc.SendTo(e.c.ClusterIP, 27960, []byte{byte(sentN)})
		sentN++
	})
	tk.Start()
	defer tk.Stop()
	e.c.Sched.RunFor(100 * time.Millisecond)
	m := e.migrate(t, 1)
	if m.UDPMigrated != 1 {
		t.Fatalf("UDPMigrated = %d", m.UDPMigrated)
	}
	tk.Stop() // let in-flight datagrams drain before counting
	e.c.Sched.RunFor(time.Second)
	q := findProcess(e.c.Nodes[1], "zone_serv1")
	_, udp := q.Sockets()
	if len(udp) != 1 {
		t.Fatal("udp socket lost")
	}
	moved := udp[0]
	// No datagram may be lost: capture covers the freeze gap. A handful
	// of duplicates are possible — in the short window between capture
	// enable (destination) and socket disable (source) the broadcast
	// delivers a datagram to both nodes.
	if moved.PacketsIn < uint64(sentN) {
		t.Fatalf("udp datagrams delivered %d < sent %d (loss)", moved.PacketsIn, sentN)
	}
	if moved.PacketsIn > uint64(sentN)+3 {
		t.Fatalf("udp datagrams delivered %d ≫ sent %d (unbounded duplication)", moved.PacketsIn, sentN)
	}
}

// TestOriginalsReleaseQueuesOnCommit: a committed migration leaves the
// migrated-away original sockets holding no packet — the image carried
// their queues by copy — while a migration that aborts after the freeze
// thaws the originals with the very packets they were frozen with. The
// zone process never reads its UDP port, so it always migrates with
// datagrams queued.
func TestOriginalsReleaseQueuesOnCommit(t *testing.T) {
	for _, commit := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.Deadline, cfg.ConnTimeout, cfg.ConnRetries = 4*time.Second, time.Second, 2
		e := newEnv(t, 2, 2, cfg)
		us := netstack.NewUDPSocket(e.c.Nodes[0].Stack)
		if err := us.Bind(e.c.ClusterIP, 27960); err != nil {
			t.Fatal(err)
		}
		e.p.FDs.Install(&proc.UDPFile{Sock: us})
		ext := e.c.NewExternalHost("udp-player")
		extAddr, _ := ext.SourceAddrFor(e.c.ClusterIP)
		uc := netstack.NewUDPSocket(ext)
		uc.BindEphemeral(extAddr)
		tk := simtime.NewTicker(e.c.Sched, 10*time.Millisecond, "udp-spam", func() {
			_ = uc.SendTo(e.c.ClusterIP, 27960, []byte{7})
		})
		tk.Start()
		e.c.Sched.RunFor(100 * time.Millisecond)

		var frozen []*netsim.Packet
		e.migrators[0].OnPhase = func(ev PhaseEvent) {
			if ev.Phase != PhaseTransfer {
				return
			}
			frozen = append(frozen, us.ReceiveQueue()...)
			if !commit {
				e.c.Nodes[1].Fail(e.c) // the destination dies mid-transfer: the source rolls back
			}
		}
		var err error
		done := false
		e.migrators[0].Migrate(e.p, e.c.Nodes[1].LocalIP, func(_ *Metrics, merr error) { err, done = merr, true })
		e.c.Sched.RunFor(30 * time.Second)
		tk.Stop()
		if !done || (err == nil) != commit {
			t.Fatalf("commit=%v: done=%v err=%v", commit, done, err)
		}
		if len(frozen) == 0 {
			t.Fatalf("commit=%v: the UDP socket froze with an empty queue: the case under test did not occur", commit)
		}
		tcp, _ := e.p.Sockets()
		if commit {
			for _, sk := range tcp {
				if n := len(sk.WriteQueue()) + len(sk.ReceiveQueue()) + len(sk.OOOQueue()) + sk.BacklogLen(); n != 0 {
					t.Errorf("committed: original :%d holds %d packets", sk.LocalPort, n)
				}
			}
			if n := us.QueueLen(); n != 0 {
				t.Errorf("committed: the UDP original holds %d datagrams", n)
			}
			continue
		}
		q := us.ReceiveQueue()
		if len(q) < len(frozen) {
			t.Fatalf("aborted: the UDP original holds %d datagrams, it froze with %d", len(q), len(frozen))
		}
		for i, pk := range frozen {
			if q[i] != pk || !bytes.Equal(pk.Payload, []byte{7}) {
				t.Fatalf("aborted: datagram %d is not the one the socket froze with (payload %x)", i, pk.Payload)
			}
		}
	}
}

func TestMetricsAccounting(t *testing.T) {
	cfg := DefaultConfig()
	e := newEnv(t, 2, 16, cfg)
	m := e.migrate(t, 1)
	if m.Strategy != sockmig.IncrementalCollective {
		t.Fatal("strategy not recorded")
	}
	if m.PrecopyMemBytes == 0 {
		t.Fatal("no precopy memory bytes")
	}
	if m.FreezeSockBytes == 0 {
		t.Fatal("no freeze socket bytes")
	}
	if m.TotalTime <= m.FreezeTime {
		t.Fatal("total time must exceed freeze time (precopy ran)")
	}
	if m.ResumeAt != m.FreezeStart+m.FreezeTime {
		t.Fatal("time bookkeeping inconsistent")
	}
	if len(e.migrators[0].Completed) != 1 {
		t.Fatal("completed list not updated")
	}
}

func TestMsgTypeString(t *testing.T) {
	// 7 is a retired slot: it reads like any other unassigned byte.
	if MsgRestoreDone.String() != "RESTORE_DONE" || MsgType(7).String() != "MSG(7)" || MsgType(99).String() != "MSG(99)" {
		t.Fatal("names wrong")
	}
}

func TestConnFramingAcrossSegmentBoundaries(t *testing.T) {
	// Frames split and coalesced arbitrarily by TCP segmentation must
	// reassemble exactly.
	c := proc.NewCluster(simtime.NewScheduler(), 2)
	lst := netstack.NewTCPSocket(c.Nodes[1].Stack)
	if err := lst.Listen(c.Nodes[1].LocalIP, 7900); err != nil {
		t.Fatal(err)
	}
	var gotTypes []MsgType
	var gotLens []int
	lst.OnAccept = func(ch *netstack.TCPSocket) {
		conn := newConn(ch, nil, nil)
		conn.funcs().onMsg = func(mt MsgType, payload []byte) {
			gotTypes = append(gotTypes, mt)
			gotLens = append(gotLens, len(payload))
		}
	}
	sk := netstack.NewTCPSocket(c.Nodes[0].Stack)
	cl := newConn(sk, nil, nil)
	if err := sk.Connect(c.Nodes[1].LocalIP, 7900); err != nil {
		t.Fatal(err)
	}
	c.Sched.RunFor(time.Second)
	// A mix of tiny and multi-MSS frames back to back.
	sizes := []int{0, 1, 5, 1447, 1448, 1449, 100000, 3, 65536}
	for i, n := range sizes {
		if err := cl.Send(MsgType(byte(i+1)), make([]byte, n)); err != nil {
			t.Fatal(err)
		}
	}
	c.Sched.RunFor(5 * time.Second)
	if len(gotTypes) != len(sizes) {
		t.Fatalf("frames = %d, want %d", len(gotTypes), len(sizes))
	}
	for i, n := range sizes {
		if gotLens[i] != n || gotTypes[i] != MsgType(byte(i+1)) {
			t.Fatalf("frame %d: type=%v len=%d, want type=%d len=%d",
				i, gotTypes[i], gotLens[i], i+1, n)
		}
	}
	if cl.BytesSent == 0 {
		t.Fatal("byte accounting missing")
	}
}

func TestWireDecodersRejectGarbage(t *testing.T) {
	if _, err := decodeMigrateReq([]byte{1, 2}); err == nil {
		t.Fatal("short MIGRATE_REQ accepted")
	}
	if _, err := decodeCaptureReq([]byte{0}); err == nil {
		t.Fatal("short CAPTURE_REQ accepted")
	}
	if _, err := decodeCaptureReq([]byte{0, 0, 0, 5, 1, 2}); err == nil {
		t.Fatal("truncated CAPTURE_REQ accepted")
	}
	if _, err := decodeFinalImage(chunkKindFreeze, []byte{1}); err == nil {
		t.Fatal("short final image accepted")
	}
	if _, err := decodeFinalImage(chunkKindFreeze, make([]byte, 9)); err == nil {
		t.Fatal("truncated final image accepted")
	}
	if _, err := decodeRestoreDone([]byte{1, 2, 3}); err == nil {
		t.Fatal("short RESTORE_DONE accepted")
	}
	// Roundtrips.
	req := migrateReq{PID: 42, Strategy: sockmig.Collective, Token: 7, Name: "zone"}
	got, err := decodeMigrateReq(req.encode())
	if err != nil || got != req {
		t.Fatalf("migrateReq roundtrip: %+v %v", got, err)
	}
	keys := []netsim.FlowKey{{RemoteIP: 1, RemotePort: 2, LocalPort: 3, Proto: 6}}
	kk, err := decodeCaptureReq(encodeCaptureReq(keys))
	if err != nil || len(kk) != 1 || kk[0] != keys[0] {
		t.Fatalf("captureReq roundtrip: %+v %v", kk, err)
	}
	rd := restoreDone{ResumeAt: 9, Captured: 2, Reinjected: 1}
	gotRd, err := decodeRestoreDone(rd.encode())
	if err != nil || gotRd != rd {
		t.Fatalf("restoreDone roundtrip: %+v %v", gotRd, err)
	}
}
