package migration

import (
	"testing"
	"time"

	"dvemig/internal/netsim"
	"dvemig/internal/simtime"
)

// oneShotDrop is a link fault that loses exactly one packet: the first
// payload-carrying migd segment toward dst that the NIC sends once armed.
// A nonzero frame narrows the match to the header segment of a frame of
// that type (Conn.Send writes the 5-byte header as a segment of its own).
type oneShotDrop struct {
	dst          netsim.Addr
	frame        MsgType
	armed, fired bool
}

func (f *oneShotDrop) Apply(_ simtime.Time, dir string, p *netsim.Packet) netsim.FaultAction {
	if !f.armed || f.fired || dir != "tx" || p.Proto != netsim.ProtoTCP || p.DstIP != f.dst ||
		(p.SrcPort != MigdPort && p.DstPort != MigdPort) || len(p.Payload) == 0 ||
		(f.frame != 0 && (len(p.Payload) != 5 || MsgType(p.Payload[0]) != f.frame)) {
		return netsim.FaultAction{}
	}
	f.fired = true
	return netsim.FaultAction{Drop: true}
}

// runWithLoss migrates the zone process of a fresh two-node env under
// row. A non-nil arm installs a oneShotDrop on one of the env's links
// before the migration starts; it must have fired by the end.
func runWithLoss(t *testing.T, row *Strategy, cfg Config, arm func(e *env) *oneShotDrop) *Metrics {
	t.Helper()
	cfg.Mig = row
	e := newEnv(t, 2, 4, cfg)
	var f *oneShotDrop
	if arm != nil {
		f = arm(e)
	}
	var m *Metrics
	e.migrators[0].Migrate(e.p, e.c.Nodes[1].LocalIP, func(mm *Metrics, err error) {
		if err != nil {
			t.Errorf("%s: migration failed: %v", row.name, err)
		}
		m = mm
	})
	// Long enough for pure demand paging: the process touches one page a
	// tick, and the migration ends when the last hole fills.
	e.c.Sched.RunFor(30 * time.Second)
	if m == nil {
		t.Fatalf("%s: migration never completed", row.name)
	}
	if f != nil && !f.fired {
		t.Fatalf("%s: the one-shot fault never dropped a segment", row.name)
	}
	return m
}

// TestLostFreezeSegmentCostsOneMigdFloor loses one migd segment where the
// migrated process waits on it: a source→destination segment inside the
// freeze window, and a post-copy demand pull's request. A handful of
// segments in flight brings fewer than three duplicate ACKs, so the
// retransmission timer recovers each loss. At migdRTOMin the frozen (or
// stalled) process waits two jiffies longer than in a healthy run, where
// TCP_RTO_MIN would cost it 200 ms.
func TestLostFreezeSegmentCostsOneMigdFloor(t *testing.T) {
	const slack = simtime.Duration(time.Millisecond)
	for i := range strategies {
		row := &strategies[i]
		t.Run("freeze/"+row.name, func(t *testing.T) {
			healthy := runWithLoss(t, row, DefaultConfig(), nil)
			lossy := runWithLoss(t, row, DefaultConfig(), func(e *env) *oneShotDrop {
				f := &oneShotDrop{dst: e.c.Nodes[1].LocalIP}
				e.c.Nodes[0].LocalNIC.SetFault(f)
				e.migrators[0].OnPhase = func(ev PhaseEvent) {
					if ev.Phase == PhaseFreeze {
						f.armed = true
					}
				}
				return f
			})
			if lossy.FreezeTime > healthy.FreezeTime+migdRTOMin+slack {
				t.Fatalf("freeze %v with one migd segment lost, %v healthy: the loss cost more than migdRTOMin (%v)",
					lossy.FreezeTime, healthy.FreezeTime, migdRTOMin)
			}
		})
	}
	t.Run("demand-pull", func(t *testing.T) {
		// Prefetch off, so every page is a demand pull and no push
		// crosses the stall. The lost segment is the destination's first
		// PAGE_REQ header: its body arrives out of order and brings one
		// duplicate ACK.
		cfg := DefaultConfig()
		cfg.PrefetchInterval = 0
		healthy := runWithLoss(t, Postcopy(), cfg, nil)
		lossy := runWithLoss(t, Postcopy(), cfg, func(e *env) *oneShotDrop {
			f := &oneShotDrop{dst: e.c.Nodes[0].LocalIP, frame: MsgPageReq, armed: true}
			e.c.Nodes[1].LocalNIC.SetFault(f)
			return f
		})
		if healthy.PagesDemand == 0 {
			t.Fatal("no demand pulls: the cell is vacuous")
		}
		if lossy.StallTime > healthy.StallTime+migdRTOMin+slack {
			t.Fatalf("stall %v with one pull segment lost, %v healthy: the loss cost more than migdRTOMin (%v)",
				lossy.StallTime, healthy.StallTime, migdRTOMin)
		}
	})
}
