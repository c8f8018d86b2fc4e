package lb

import (
	"encoding/hex"
	"testing"
	"time"

	"dvemig/internal/migration"
	"dvemig/internal/netstack"
	"dvemig/internal/obs"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
)

// The conductor frames, pinned in bytes: each row is one frame, built
// from fixed values or sent by a live conductor, and must equal the hex
// recorded at commit aa9b64c; each is then fed to a conductor (or its
// decoder), which must read back the values it was built from. Trace
// hashes fold in packet lengths, not payload bytes, so a field swapped
// inside a frame would change no other golden.
func TestFrameGolden(t *testing.T) {
	c := proc.NewCluster(simtime.NewScheduler(), 3)
	o := obs.New(c.Sched)
	var cds []*Conductor
	for _, n := range c.Nodes[1:] {
		m, err := migration.NewMigrator(n, migration.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cd, err := NewConductor(n, m, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cd.SetObs(o)
		cds = append(cds, cd)
	}
	a, b := cds[0], cds[1]
	// The test's own endpoint speaks the conductor protocol by hand.
	peer := netstack.NewUDPSocket(c.Nodes[0].Stack)
	if err := peer.Bind(c.Nodes[0].LocalIP, CondPort); err != nil {
		t.Fatal(err)
	}
	c.Sched.RunFor(2 * time.Second)
	// recv returns the last frame of kind op that reached peer.
	recv := func(op byte) []byte {
		var last []byte
		for {
			dg, ok := peer.Recv()
			if !ok {
				return last
			}
			if len(dg.Payload) > 0 && dg.Payload[0] == op {
				last = append([]byte(nil), dg.Payload...)
			}
		}
	}
	recv(0)
	deliver := func(to *Conductor, frame []byte) {
		_ = peer.SendTo(to.Node.LocalIP, CondPort, frame)
		c.Sched.RunFor(10 * time.Millisecond)
	}
	from := c.Nodes[0].LocalIP
	loadOf := func(cd *Conductor) float64 { return cd.peers[from].load }

	hb := loadMsg(opHeartbeat, 0.8125)
	deliver(a, hb)
	a.load = 0.625
	deliver(a, []byte{opDiscover})
	reply := recv(opDiscoverReply)
	deliver(b, reply)
	a.propose(from)
	bal := a.balSpan
	c.Sched.RunFor(10 * time.Millisecond)
	prop := recv(opPropose)
	deliver(b, prop)
	accept := recv(opAccept)
	deliver(a, accept)
	release := recv(opRelease)
	owner := appendOwnerMsg(nil, opOwner, "zone-3", 7, 0x0102030405060708)
	claim := appendOwnerMsg(nil, opClaim, "zone-4", 8, 9)

	for _, row := range []struct {
		name  string
		enc   []byte
		want  string
		check func() bool
	}{
		{"heartbeat", hb, "0300000000000c65d4", func() bool { return loadOf(a) == 0.8125 }},
		{"discover reply", reply, "020000000000098968", func() bool { return loadOf(b) == 0.625 }},
		{"propose", prop, "0400000001000000000009896800000000000000010000000000000001", func() bool { return b.state == stateReceiving && b.rsvSpan != nil && b.rsvSpan.Parent == bal }},
		{"accept", accept, "0500000001", func() bool { return a.state == stateIdle }},
		{"release", release, "0800000001", func() bool { return release[4] == prop[4] && accept[4] == prop[4] }},
		{"owner", owner, "09000000000000000701020304050607087a6f6e652d33", func() bool {
			name, ep, seq, err := decodeOwnerMsg(owner)
			return err == nil && name == "zone-3" && ep == 7 && seq == 0x0102030405060708
		}},
		{"claim", claim, "0a000000000000000800000000000000097a6f6e652d34", func() bool {
			name, ep, seq, err := decodeOwnerMsg(claim)
			return err == nil && name == "zone-4" && ep == 8 && seq == 9
		}},
	} {
		if got := hex.EncodeToString(row.enc); got != row.want {
			t.Errorf("%s: encoding moved\n got %s\nwant %s", row.name, got, row.want)
		}
		if !row.check() {
			t.Errorf("%s: the receiver did not read back the frame's values", row.name)
		}
	}
}
