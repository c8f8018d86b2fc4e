package eval

import (
	"reflect"
	"testing"

	"dvemig/internal/faults"
	"dvemig/internal/flight"
	"dvemig/internal/netsim"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
)

// TestTraceHashGoldens pins one cell of each battery to the trace hash
// it produced at e5dadc0, before the NIC's sniffer list and flight
// pointer became one tap list: the taps must see the packets they saw,
// at the instants they saw them. (The benchmark's sim_digest checks the
// same thing across PRs; this is the copy that runs in tier-1.) The soak
// cell was re-pinned once since, when migd connections took their own
// retransmission floor (migdRTOMin): its lost migd segments now resend
// 20 ms after they left instead of 200 ms, so the packets move in time.
func TestTraceHashGoldens(t *testing.T) {
	ccfg, scfg := DefaultChaosConfig(), DefaultSoakConfig()
	csc, fsc, ssc := ccfg.Scenarios[5], DefaultFailoverScenarios()[1], scfg.Scenarios[1]
	if csc.Name != "lossy-cluster" || fsc.Name != "partition-heal" || ssc.Name != "lossy" {
		t.Fatalf("scenario lists reordered: picked %s, %s, %s", csc.Name, fsc.Name, ssc.Name)
	}
	chaos, err := ccfg.runCell(csc, 1, true) // lit: the flight tap rides along and must not show
	if err != nil {
		t.Fatal(err)
	}
	fo, err := RunFailoverScenario(fsc, 1)
	if err != nil {
		t.Fatal(err)
	}
	scfg.Requests, scfg.Seeds, scfg.Scenarios = 80, []uint64{1}, []SoakScenario{ssc}
	soak, err := RunSoak(scfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		cell      string
		got, want uint64
	}{
		{"chaos lossy-cluster/seed1", chaos.TraceHash, 0x81e6c14ae52a4d37},
		{"failover partition-heal/seed1", fo.TraceHash, 0x2c31328fec9453c6},
		{"soak lossy/seed1, 80 requests", soak.Results[0].TraceHash, 0xc0c3bd2ee0c4c3bb},
	} {
		if c.got != c.want {
			t.Errorf("%s: trace hash %#x, want %#x", c.cell, c.got, c.want)
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
// and the trace hash. Both recorders see every event, the first attached
// first; the flight track holds the same verdicts; the hash moves on tx
// and rx only; and a detached flight tap sees nothing while the rest
// carry on.
func TestTapOrderAndIndependence(t *testing.T) {
	f := newFixture(2, false, true, nil, "")
	c, set := f.cluster, f.flight
	a, b := c.Nodes[0], c.Nodes[1]
	var calls []*recTap
	first, second, hash := &recTap{calls: &calls}, &recTap{calls: &calls}, newFnvSniffer()
	for _, tap := range []netsim.Tap{first, second, hash} {
		a.LocalNIC.AttachTap(tap)
	}
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
	ping(b, a, &faults.Program{Down: always}) // dropped on ingress: the hash must not move
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
	if want := []bool{true, true, true, false, true}; !reflect.DeepEqual(moved, want) {
		t.Fatalf("the trace hash moved on pings %v, want %v: it folds tx and rx, never a drop or a dup", moved, want)
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
