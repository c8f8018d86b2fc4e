package sockmig

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"dvemig/internal/netsim"
	"dvemig/internal/netstack"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
)

// goldenDeltaRounds are the length and SHA-256 of every round's encoded
// delta of scriptedDeltaRounds, recorded at commit 3f9db6b — before the
// tracker hashed out of a scratch buffer. What a round ships is a pure
// function of the simulated sockets, so these must never move.
var goldenDeltaRounds = []string{
	"23956:ae2a80bc9cc3663eb61cf66397b82f76df0bb6a287dbe38ef655af80808d61a8",
	"8:9ee50aea7e52f17dc807488bbd631e368da3a3ad3d5a31ad4b0f049581366c4d",
	"64622:672b2e5382dda1d05c7c0ecc1598106d8a53bb04e3badb1089531a8c61ba0eba",
	"4126:ca4eb4c242e442edd0c0b920af398150380d75ff15662d0a21fcf40191ecb718",
	"5424:78b896683ff0301c996627288ff5b595d3ad05a0449c88ebe49f968fbbf0e57a",
}

// scriptedDeltaRounds drives one tracker over an eight-socket process —
// idle, sending (unacked write queue), receiving (unread receive queue),
// out of order, send-buffer backlog, an in-cluster session, a listener
// and a UDP socket with queued datagrams — through four precopy rounds
// and the freeze round, and returns each round's wire bytes.
func scriptedDeltaRounds(t testing.TB) [][]byte {
	env := newEnv(t, 5)
	n1 := env.c.Nodes[0]
	lst := netstack.NewTCPSocket(n1.Stack)
	if err := lst.Listen(env.c.ClusterIP, 7100); err != nil {
		t.Fatal(err)
	}
	env.p.FDs.Install(&proc.TCPFile{Sock: lst})
	us := netstack.NewUDPSocket(n1.Stack)
	if err := us.Bind(env.c.ClusterIP, 27960); err != nil {
		t.Fatal(err)
	}
	env.p.FDs.Install(&proc.UDPFile{Sock: us})
	peer := netstack.NewUDPSocket(env.clients[0].Stack())
	peer.BindEphemeral(env.clients[0].LocalIP)
	tcp, _ := env.p.Sockets()
	run := func(d time.Duration) { env.c.Sched.RunFor(d) }

	tr := NewTracker()
	var rounds [][]byte
	var buf []byte
	round := func(freeze bool) {
		buf = tr.Delta(env.p, freeze).EncodeInto(buf)
		rounds = append(rounds, append([]byte(nil), buf...))
	}

	// Round 1: everything, with two datagrams already queued.
	for _, msg := range []string{"hello", "zone 7"} {
		if err := peer.SendTo(env.c.ClusterIP, 27960, []byte(msg)); err != nil {
			t.Fatal(err)
		}
	}
	run(10 * time.Millisecond)
	round(false)

	// Round 2: nothing happened.
	run(10 * time.Millisecond)
	round(false)

	// Round 3: fd 1 has segments in flight, fd 2 unread data, fd 3 a hole
	// (its first segment is lost, the second waits out of order), fd 4
	// more to send than the window takes, and fd 0 is locked: skipped.
	if err := tcp[1].Send(bytes.Repeat([]byte("s"), 3000)); err != nil {
		t.Fatal(err)
	}
	if err := env.clients[2].Send([]byte("unread update")); err != nil {
		t.Fatal(err)
	}
	lost := false
	n1.PublicNIC.SetFault(holeFault(func(p *netsim.Packet) bool {
		lose := !lost && len(p.Payload) > 0 && p.SrcPort == env.clients[3].LocalPort
		lost = lost || lose
		return lose
	}))
	if err := env.clients[3].Send(bytes.Repeat([]byte("o"), 2*netstack.DefaultMSS)); err != nil {
		t.Fatal(err)
	}
	if err := tcp[4].Send(bytes.Repeat([]byte("b"), 40*netstack.DefaultMSS)); err != nil {
		t.Fatal(err)
	}
	if err := env.clients[0].Send([]byte("to the locked one")); err != nil {
		t.Fatal(err)
	}
	tcp[0].Lock()
	run(30 * time.Microsecond) // segments are on the wire, no ACK is back yet
	round(false)
	if len(tcp[1].WriteQueue()) == 0 || tcp[4].SendBufLen() == 0 {
		t.Fatalf("round 3 caught no unacked segment (%d) or no backlog (%d)", len(tcp[1].WriteQueue()), tcp[4].SendBufLen())
	}

	// Round 4: the flight landed; the hole is still open, fd 0 still locked.
	run(5 * time.Millisecond)
	n1.PublicNIC.SetFault(nil)
	if len(tcp[3].OOOQueue()) == 0 || len(tcp[2].ReceiveQueue()) == 0 || tcp[0].BacklogLen() == 0 {
		t.Fatalf("round 4 state: ooo %d, unread %d, backlog %d", len(tcp[3].OOOQueue()), len(tcp[2].ReceiveQueue()), tcp[0].BacklogLen())
	}
	if err := peer.SendTo(env.c.ClusterIP, 27960, []byte("third")); err != nil {
		t.Fatal(err)
	}
	run(5 * time.Millisecond)
	round(false)
	if tr.SkippedLocked != 2 {
		t.Fatalf("SkippedLocked = %d, want 2", tr.SkippedLocked)
	}

	// Freeze round: the signal released the lock, the retransmission
	// filled the hole, the application read fd 2.
	tcp[0].Unlock()
	run(time.Second)
	tcp[2].Discard()
	if _, ok := us.Recv(); !ok {
		t.Fatal("no datagram queued")
	}
	round(true)
	return rounds
}

// holeFault loses the ingress packets it picks on a link.
type holeFault func(p *netsim.Packet) bool

func (f holeFault) Apply(_ simtime.Time, dir string, p *netsim.Packet) netsim.FaultAction {
	return netsim.FaultAction{Drop: dir == "rx" && f(p)}
}

func TestDeltaBytesMatchGolden(t *testing.T) {
	var got []string
	for _, b := range scriptedDeltaRounds(t) {
		got = append(got, fmt.Sprintf("%d:%x", len(b), sha256.Sum256(b)))
	}
	if fmt.Sprint(got) != fmt.Sprint(goldenDeltaRounds) {
		t.Fatalf("round bytes moved:\n got %q\nwant %q", got, goldenDeltaRounds)
	}
}
