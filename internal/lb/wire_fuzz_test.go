package lb

import (
	"testing"

	"dvemig/internal/migration"
	"dvemig/internal/netstack"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
)

// FuzzOwnerMsg feeds arbitrary bytes to the ownership/claim frame
// decoder. The frame arrives from the network, so the decoder must
// never panic, must reject anything shorter than the fixed header, and
// every frame it accepts must roundtrip through the encoder.
func FuzzOwnerMsg(f *testing.F) {
	f.Add(appendOwnerMsg(nil, opOwner, "scoreboard", 3, 7))
	f.Add(appendOwnerMsg(nil, opClaim, "", 0, 0))
	f.Add([]byte{})
	f.Add(make([]byte, 16))
	f.Fuzz(func(t *testing.T, data []byte) {
		name, ep, seq, err := decodeOwnerMsg(data)
		if len(data) < 17 {
			if err == nil {
				t.Fatalf("decoded a %d-byte frame (min header is 17)", len(data))
			}
			return
		}
		if err != nil {
			return
		}
		back := appendOwnerMsg(nil, data[0], name, ep, seq)
		name2, ep2, seq2, err := decodeOwnerMsg(back)
		if err != nil || name2 != name || ep2 != ep || seq2 != seq {
			t.Fatalf("roundtrip broken: (%q,%d,%d,%v) != (%q,%d,%d)",
				name2, ep2, seq2, err, name, ep, seq)
		}
		if len(back) != len(data) {
			t.Fatalf("re-encoded length %d != original %d", len(back), len(data))
		}
	})
}

// FuzzConductorServe throws raw datagrams at a live conductor's UDP
// port — the op switch, the heartbeat load decoder and the owner/claim
// handlers all parse attacker-controlled bytes. Whatever arrives, the
// conductor must not panic and must keep serving: a well-formed
// heartbeat sent afterwards has to register the peer as alive.
func FuzzConductorServe(f *testing.F) {
	f.Add([]byte{opHeartbeat, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{opOwner})
	f.Add(appendOwnerMsg(nil, opClaim, "zone", ^uint64(0), ^uint64(0)))
	f.Add([]byte{opPropose, 0, 0, 0})
	f.Add([]byte{0xEE})
	f.Fuzz(func(t *testing.T, data []byte) {
		sched := simtime.NewScheduler()
		cluster := proc.NewCluster(sched, 2)
		mig, err := migration.NewMigrator(cluster.Nodes[0], migration.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cd, err := NewConductor(cluster.Nodes[0], mig, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		atk := netstack.NewUDPSocket(cluster.Nodes[1].Stack)
		atk.BindEphemeral(cluster.Nodes[1].LocalIP)
		if err := atk.SendTo(cluster.Nodes[0].LocalIP, CondPort, data); err != nil {
			t.Fatal(err)
		}
		sched.RunFor(100 * 1e6)
		// The conductor must still be parsing: a valid heartbeat from the
		// same source registers it as an alive peer.
		if err := atk.SendTo(cluster.Nodes[0].LocalIP, CondPort, loadMsg(opHeartbeat, 0.5)); err != nil {
			t.Fatal(err)
		}
		sched.RunFor(100 * 1e6)
		if st := cd.PeerState(cluster.Nodes[1].LocalIP); st != PeerAlive {
			t.Fatalf("conductor wedged after fuzz frame: peer state = %v", st)
		}
	})
}
