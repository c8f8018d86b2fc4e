package eval

import (
	"reflect"
	"testing"

	"dvemig/internal/ctlplane"
	"dvemig/internal/faults"
	"dvemig/internal/flight"
	"dvemig/internal/migration"
	"dvemig/internal/netsim"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
)

// dropOnce is a one-shot fault program: it drops the first packet match
// accepts, in either direction, and lets everything else through.
type dropOnce struct {
	match   func(*netsim.Packet) bool
	dropped bool
}

func (d *dropOnce) Apply(_ simtime.Time, _ string, p *netsim.Packet) netsim.FaultAction {
	if d.dropped || !d.match(p) {
		return netsim.FaultAction{}
	}
	d.dropped = true
	return netsim.FaultAction{Drop: true}
}

// TestDigestSeesEveryWire drops one packet on each link class a battery
// runs over — the clients' access link, a public server link, the
// in-cluster migd connection, the DB session and a control-plane
// datagram — and demands that the cell's trace hash moves: a hash that
// stays put across a lost packet cannot tell two runs apart.
func TestDigestSeesEveryWire(t *testing.T) {
	carries := func(p *netsim.Packet) bool { return len(p.Payload) > 0 }
	port := func(ports ...uint16) func(*netsim.Packet) bool {
		return func(p *netsim.Packet) bool {
			for _, pt := range ports {
				if p.SrcPort == pt || p.DstPort == pt {
					return true
				}
			}
			return false
		}
	}
	// A lost bare ACK is covered by the next cumulative one: nothing is
	// resent and no client sees a thing, so only the wire itself shows it.
	bareAck := func(pt uint16) func(*netsim.Packet) bool {
		on := port(pt)
		return func(p *netsim.Packet) bool { return on(p) && p.Flags == netsim.FlagACK && len(p.Payload) == 0 }
	}
	ccfg := DefaultChaosConfig()
	chaos := func(arm func(*ChaosEnv)) uint64 {
		res, err := ccfg.runCell(ChaosScenario{Name: "healthy", Arm: arm}, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		return res.TraceHash
	}
	scfg := DefaultSoakConfig()
	scfg.Requests, scfg.Seeds = 40, []uint64{1}
	soak := func(arm func(*SoakEnv)) uint64 {
		scfg.Scenarios = []SoakScenario{{Name: "healthy", Arm: arm}}
		rep, err := RunSoak(scfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Results[0].TraceHash
	}
	chaosBase, soakBase := chaos(nil), soak(nil)
	for _, row := range []struct {
		wire     string
		chaosNIC func(*ChaosEnv) *netsim.NIC // nil: the row runs a soak cell
		soakNIC  func(*SoakEnv) *netsim.NIC
		match    func(*netsim.Packet) bool
	}{
		{"client access link", func(e *ChaosEnv) *netsim.NIC { return e.ClientNIC }, nil, carries},
		{"public server link", func(e *ChaosEnv) *netsim.NIC { return e.Source.PublicNIC }, nil, carries},
		{"in-cluster migd", func(e *ChaosEnv) *netsim.NIC { return e.Source.LocalNIC }, nil, bareAck(migration.MigdPort)},
		{"DB session", func(e *ChaosEnv) *netsim.NIC { return e.DB.LocalNIC }, nil, port(3306)},
		{"ctlplane datagram", nil, func(e *SoakEnv) *netsim.NIC { return e.CtlNode.LocalNIC },
			port(ctlplane.CtlPort, ctlplane.AgentPort)},
	} {
		drop := &dropOnce{match: row.match}
		var got, base uint64
		if row.chaosNIC != nil {
			got, base = chaos(func(e *ChaosEnv) { row.chaosNIC(e).SetFault(drop) }), chaosBase
		} else {
			got, base = soak(func(e *SoakEnv) { row.soakNIC(e).SetFault(drop) }), soakBase
		}
		if !drop.dropped {
			t.Errorf("%s: no packet matched, nothing dropped", row.wire)
		} else if got == base {
			t.Errorf("%s: one dropped packet left the trace hash at %#x", row.wire, base)
		}
	}
}

// recTap records every event and signs the shared call log.
type recTap struct {
	evs   []netsim.TapEvent
	calls *[]*recTap
}

func (r *recTap) PacketEvent(_ simtime.Time, ev netsim.TapEvent, _ *netsim.Packet) {
	r.evs = append(r.evs, ev)
	*r.calls = append(*r.calls, r)
}

// TestTapOrderAndIndependence walks the five emission points — tx,
// drop-fault and dup in Send, drop-fault and rx in deliver — past four
// taps on one NIC: the flight adapter a lit cell attaches, two recorders
// and the wire digest. Both recorders see every event, the first
// attached first; the flight track holds the same verdicts; the digest
// moves on every ping, the ingress drop's included; and a detached
// flight tap sees nothing while the rest carry on.
func TestTapOrderAndIndependence(t *testing.T) {
	f := newFixture(2, false, true, nil, "")
	c, set := f.cluster, f.flight
	a, b := c.Nodes[0], c.Nodes[1]
	var calls []*recTap
	first, second := &recTap{calls: &calls}, &recTap{calls: &calls}
	for _, tap := range []netsim.Tap{first, second} {
		a.LocalNIC.AttachTap(tap)
	}
	hash := &wireDigest{h: fnvOffset} // on node1's in-cluster NIC only
	hash.attach(a.LocalNIC)
	var moved []bool // did the hash move on this ping
	ping := func(from, to *proc.Node, fault *faults.Program) {
		a.LocalNIC.SetFault(fault)
		before := hash.h
		from.LocalNIC.Send(&netsim.Packet{SrcIP: from.LocalIP, DstIP: to.LocalIP, Proto: netsim.ProtoUDP,
			SrcPort: 9, DstPort: 9, Payload: []byte("tap")})
		c.Sched.Run()
		moved = append(moved, hash.h != before)
	}
	always := []faults.Window{{From: 0, To: 1 << 62}}
	ping(a, b, &faults.Program{})             // tx
	ping(a, b, &faults.Program{BaseLoss: 1})  // tx, then dropped on egress
	ping(a, b, &faults.Program{DupRate: 1})   // tx, then duplicated
	ping(b, a, &faults.Program{Down: always}) // dropped on ingress
	ping(b, a, &faults.Program{})             // rx

	const tx, rx, drop, dup = netsim.TapTx, netsim.TapRx, netsim.TapDropFault, netsim.TapDup
	want := []netsim.TapEvent{tx, tx, drop, tx, dup, drop, rx}
	if !reflect.DeepEqual(first.evs, want) || !reflect.DeepEqual(second.evs, want) {
		t.Fatalf("recorders saw %v and %v, want both %v", first.evs, second.evs, want)
	}
	for i, r := range calls {
		if r != []*recTap{first, second}[i%2] {
			t.Fatalf("call %d went to the tap attached later: taps are not called in attach order", i)
		}
	}
	if want := []bool{true, true, true, true, true}; !reflect.DeepEqual(moved, want) {
		t.Fatalf("the wire digest moved on pings %v, want %v: it folds every event, drops and dups included", moved, want)
	}
	var track *flight.Recorder
	for _, r := range set.Recorders() {
		if r.Track == "node1/nic-local" {
			track = r
		}
	}
	var verdicts []string
	for _, e := range track.Events() {
		verdicts = append(verdicts, e.Kind+" "+e.Name)
	}
	if want := []string{"pkt tx", "pkt tx", "pkt drop-fault", "pkt tx", "pkt dup", "pkt drop-fault", "pkt rx"}; !reflect.DeepEqual(verdicts, want) {
		t.Fatalf("flight track recorded %q, want %q", verdicts, want)
	}

	a.AttachFlight(nil)
	ping(a, b, &faults.Program{})
	if track.Total() != uint64(len(want)) || !moved[5] || len(second.evs) != len(want)+1 {
		t.Fatalf("after detaching the flight tap: its track grew to %d events, hash moved %v, recorder saw %d",
			track.Total(), moved[5], len(second.evs))
	}
}
