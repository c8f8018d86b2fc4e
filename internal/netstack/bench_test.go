package netstack

import (
	"fmt"
	"testing"
	"time"

	"dvemig/internal/netsim"
	"dvemig/internal/simtime"
)

// Micro-benchmarks of the simulator's hot paths: how fast the event loop
// pushes TCP bytes, snapshots sockets and drives the hash tables. These
// bound the wall-clock cost of the big experiments.

func benchPair() (*simtime.Scheduler, *Stack, *Stack) {
	sched := simtime.NewScheduler()
	sw := netsim.NewSwitch(sched)
	a := NewStack(sched, "a", 1000)
	b := NewStack(sched, "b", 2000)
	na := sw.Attach("a.eth0", addrA, netsim.GigabitEthernet)
	nb := sw.Attach("b.eth0", addrB, netsim.GigabitEthernet)
	a.AttachNIC(na, addrA)
	b.AttachNIC(nb, addrB)
	a.AddRoute(lan, 24, na, addrA)
	b.AddRoute(lan, 24, nb, addrB)
	return sched, a, b
}

// benchConn is benchPair with one established connection from a to b.
func benchConn(b *testing.B) (sched *simtime.Scheduler, cli, srv *TCPSocket) {
	sched, sa, sb := benchPair()
	lst := NewTCPSocket(sb)
	if err := lst.Listen(addrB, 9000); err != nil {
		b.Fatal(err)
	}
	lst.OnAccept = func(ch *TCPSocket) { srv = ch }
	cli = NewTCPSocket(sa)
	if err := cli.Connect(addrB, 9000); err != nil {
		b.Fatal(err)
	}
	sched.RunFor(time.Second)
	return sched, cli, srv
}

// BenchmarkTCPBulkTransfer measures simulated-TCP throughput in host
// time: one 1 MB transfer per iteration.
func BenchmarkTCPBulkTransfer(b *testing.B) {
	sched, cli, srv := benchConn(b)
	srv.OnReadable = func() { srv.Recv() }
	msg := make([]byte, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cli.Send(msg); err != nil {
			b.Fatal(err)
		}
		sched.RunFor(5 * time.Second)
		if cli.SndUna != cli.SndNxt {
			b.Fatal("transfer incomplete")
		}
	}
	b.SetBytes(1 << 20)
}

// BenchmarkTCPSendDirect is the send path's rung: 1 MiB per iteration
// through a peer that keeps up, as Sends of eight full segments (the chunk
// pipeline's shape) and of 256 bytes (a control message's), so that every
// byte is segmented out of the caller's slice and none waits in the send
// buffer.
func BenchmarkTCPSendDirect(b *testing.B) {
	for _, size := range []int{8 * DefaultMSS, 256} {
		b.Run(fmt.Sprintf("send=%dB", size), func(b *testing.B) {
			sched, cli, srv := benchConn(b)
			srv.OnReadable = func() { srv.Discard() }
			msg := make([]byte, size)
			sends := (1<<20 + size - 1) / size
			b.ReportAllocs()
			b.SetBytes(int64(sends * size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for n := 0; n < sends; n++ {
					if err := cli.Send(msg); err != nil {
						b.Fatal(err)
					}
					sched.RunFor(time.Millisecond)
				}
				if cli.SndUna != cli.SndNxt || cli.SendBufLen() != 0 {
					b.Fatal("transfer incomplete")
				}
			}
		})
	}
}

// BenchmarkSnapshotTCP measures socket state subtraction + encoding.
func BenchmarkSnapshotTCP(b *testing.B) {
	sched, sa, sb := benchPair()
	lst := NewTCPSocket(sb)
	if err := lst.Listen(addrB, 9001); err != nil {
		b.Fatal(err)
	}
	cli := NewTCPSocket(sa)
	if err := cli.Connect(addrB, 9001); err != nil {
		b.Fatal(err)
	}
	sched.RunFor(time.Second)
	cli.Send(make([]byte, 8192))
	sched.RunFor(time.Second)
	b.ResetTimer()
	var total int
	for i := 0; i < b.N; i++ {
		snap := SnapshotTCP(cli)
		total += len(snap.Encode())
	}
	_ = total
}

// BenchmarkSnapshotRestoreRoundTrip measures the full per-socket
// migration unit: snapshot, encode, decode, restore, unhash again.
func BenchmarkSnapshotRestoreRoundTrip(b *testing.B) {
	sched, sa, sb := benchPair()
	lst := NewTCPSocket(sb)
	if err := lst.Listen(addrB, 9002); err != nil {
		b.Fatal(err)
	}
	cli := NewTCPSocket(sa)
	if err := cli.Connect(addrB, 9002); err != nil {
		b.Fatal(err)
	}
	sched.RunFor(time.Second)
	cli.Unhash()
	enc := SnapshotTCP(cli).Encode()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := DecodeTCPSnapshot(enc)
		if err != nil {
			b.Fatal(err)
		}
		sk, err := RestoreTCP(sa, snap)
		if err != nil {
			b.Fatal(err)
		}
		sk.Unhash()
	}
}

// BenchmarkEhashDemux measures the demux fast path.
func BenchmarkEhashDemux(b *testing.B) {
	sched := simtime.NewScheduler()
	st := NewStack(sched, "s", 0)
	// Populate the table with many established sockets.
	for i := 0; i < 1024; i++ {
		sk := NewTCPSocket(st)
		sk.State = TCPEstablished
		sk.LocalIP, sk.LocalPort = addrA, 80
		sk.RemoteIP, sk.RemotePort = netsim.Addr(i+1), uint16(30000+i)
		st.ehash.put(sk)
	}
	p := &netsim.Packet{Proto: netsim.ProtoTCP, DstIP: addrA, DstPort: 80,
		SrcIP: 512, SrcPort: 30511, Flags: netsim.FlagACK}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.demux(p)
	}
}
