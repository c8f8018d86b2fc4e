package ctlplane

import (
	"fmt"
	"testing"
	"time"

	"dvemig/internal/netsim"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
)

// checkLive asserts the live-set invariant: c.live is exactly the
// non-terminal objects of the store, in order order, and holds the
// store's current pointer for each (a replica replaces the object).
func checkLive(t *testing.T, c *Controller, step string) {
	t.Helper()
	var want []*Object
	for i, id := range c.order {
		o := c.objects[id]
		if o.ord != i {
			t.Fatalf("%s: object %#x has ord %d at order position %d", step, id, o.ord, i)
		}
		if !o.Terminal() {
			want = append(want, o)
		}
	}
	if len(c.live) != len(want) {
		t.Fatalf("%s: live set has %d objects, store has %d non-terminal", step, len(c.live), len(want))
	}
	for i := range want {
		if c.live[i] != want[i] {
			t.Fatalf("%s: live[%d] = %#x (ord %d), want %#x (ord %d)", step, i,
				c.live[i].Spec.ID, c.live[i].ord, want[i].Spec.ID, want[i].ord)
		}
	}
}

// soloController is a controller on a one-node cluster with a peer
// address nobody answers on: every directive and replica it sends falls
// into the void, so the test drives each input edge by hand.
func soloController(t testing.TB, primary bool) (*Controller, *simtime.Scheduler) {
	t.Helper()
	sched := simtime.NewScheduler()
	c := proc.NewCluster(sched, 1)
	cfg := fastCtlConfig()
	cfg.Deadline = 3 * time.Second
	cfg.CancelGrace = time.Second
	cfg.TakeoverAfter = time.Hour // promotions are the program's, not the clock's
	ctl, err := NewController(c.Nodes[0], netsim.Addr(0xC0A801FA), primary, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ctl, sched
}

func soloSpec(i int) Spec {
	return Spec{PID: 100 + i, Name: fmt.Sprintf("svc%03d", i),
		Source: netsim.Addr(0xC0A80101), Dest: netsim.Addr(0xC0A80102), MaxRetries: 1}
}

// TestLiveSetDifferential drives random programs over every edge that
// changes an object's liveness — submit, cancel, agent events, deadline
// ticks, demotion, replicas (new, superseding, resurrecting), takeover —
// and checks the live set against a full scan of the store after each.
func TestLiveSetDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		c, sched := soloController(t, true)
		rng := simtime.NewRand(seed)
		pick := func() *Object {
			if len(c.order) == 0 {
				return nil
			}
			return c.objects[c.order[rng.Intn(len(c.order))]]
		}
		nextSvc := 0
		for step := 0; step < 300; step++ {
			var what string
			switch op := rng.Intn(10); {
			case op < 3 && c.Primary:
				what = "submit"
				if _, err := c.Submit(soloSpec(nextSvc)); err != nil {
					t.Fatal(err)
				}
				nextSvc++
			case op == 3:
				what = "cancel"
				if o := pick(); o != nil {
					_ = c.Cancel(o.Spec.ID, "test") // terminal / not-primary errors are part of the program
				}
			case op < 6:
				what = "event"
				if o := pick(); o != nil {
					kinds := []byte{evAccepted, evRejected, evSucceeded, evAborted, evBusy, evCancelRefused}
					c.handleEvent(eventMsg{CtlEpoch: c.epoch, ObjID: o.Spec.ID,
						Attempt: uint32(o.Status.Attempt), Kind: kinds[rng.Intn(len(kinds))], Detail: "test"})
				}
			case op == 6:
				what = "run"
				sched.RunFor(simtime.Duration(rng.Intn(1500)) * time.Millisecond)
			case op == 7 && c.Primary:
				what = "demote"
				c.demoteTo(c.epoch + 1)
				c.seenEpoch = c.epoch + 1
			case op == 7:
				what = "takeover"
				c.takeover(sched.Now())
			case !c.Primary:
				// The new primary's view of one object: a known one (any
				// state, including back to life after the fence parked it) or
				// one this controller never saw.
				what = "replica"
				r := &Object{Spec: soloSpec(nextSvc)}
				r.Spec.ID = c.seenEpoch<<32 | uint64(1000+nextSvc)
				if o := pick(); o != nil && rng.Intn(3) > 0 {
					r = &Object{Spec: o.Spec}
				} else {
					nextSvc++
				}
				r.Status.State = State(rng.Intn(int(Aborted) + 1))
				r.Status.Attempt = 1
				r.Status.SubmitAt = sched.Now()
				c.applyReplica(c.seenEpoch, r)
			}
			checkLive(t, c, fmt.Sprintf("seed %d step %d (%s)", seed, step, what))
		}
		c.Stop()
	}
}

// TestLiveSetAcrossPartitionHeal is the end-to-end program the skipped-
// prefix shortcut gets wrong: the primary is partitioned while objects
// are in flight, the standby takes over, the heal fences the ex-primary
// (its copies park Failed "controller fenced"), the new primary's
// replicas bring those same objects back to life in the middle of the
// ex-primary's order, and then the new primary dies and the ex-primary
// is promoted again and has to reconcile them.
func TestLiveSetAcrossPartitionHeal(t *testing.T) {
	ccfg := fastCtlConfig()
	ccfg.MaxRetries = 100
	ccfg.Deadline = 40 * time.Second
	// A hello on every tick: the heal's first one fences the ex-primary
	// and counts as fresh liveness, so it stays demoted (fenced by an
	// agent's stale-epoch event instead, its last hello is 12 s old and
	// it would promote itself again on the next tick).
	ccfg.HelloPeriod = ccfg.Period
	e := newCtlEnv(t, 2, true, ccfg)
	var objs []*Object
	for i := 0; i < 4; i++ {
		p := e.worker(0, fmt.Sprintf("zone%d", i))
		spec := e.spec(p, 0, 1)
		if i%2 == 1 {
			// Never completes: stays live across every role change below.
			spec.Dest = netsim.Addr(0xC0A801FA)
		}
		o, err := e.ctl.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, o)
	}
	sched := e.c.Sched
	sched.After(150*time.Millisecond, "test/partition", func() { e.ctl.Node.Stack.SetDown(true) })
	sched.After(12*time.Second, "test/heal", func() { e.ctl.Node.Stack.SetDown(false) })
	sched.After(20*time.Second, "test/crash-new-primary", func() {
		e.standby.Node.Fail(e.c)
		e.standby.Stop()
	})
	resurrected := false
	for sched.Now() < simtime.Time(60*time.Second) {
		sched.RunFor(10 * time.Millisecond)
		at := fmt.Sprintf("t=%v", sched.Now())
		checkLive(t, e.ctl, at+" ex-primary")
		checkLive(t, e.standby, at+" standby")
		if !e.ctl.Primary && e.ctl.Demotions == 1 && len(e.ctl.live) > 0 {
			resurrected = true
		}
	}
	if e.standby.Takeovers != 1 || e.ctl.Demotions != 1 || e.ctl.Takeovers != 1 {
		t.Fatalf("standby takeovers %d, ex-primary demotions %d takeovers %d; want 1/1/1",
			e.standby.Takeovers, e.ctl.Demotions, e.ctl.Takeovers)
	}
	if !resurrected {
		t.Fatal("no fenced object came back to life on the demoted ex-primary: the program missed its edge")
	}
	for _, o := range objs {
		if got := e.ctl.Get(o.Spec.ID); !got.Terminal() {
			t.Fatalf("object %#x still %s on the re-promoted controller: %v",
				o.Spec.ID, got.Status.State, got.Status.Cause)
		}
	}
}

// parkedController returns a primary holding parked terminal objects
// followed by live Running ones.
func parkedController(tb testing.TB, parked, live int) *Controller {
	c, _ := soloController(tb, true)
	for i := 0; i < parked+live; i++ {
		o, err := c.Submit(soloSpec(i))
		if err != nil {
			tb.Fatal(err)
		}
		if i < parked {
			if err := c.Cancel(o.Spec.ID, "history"); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return c
}

// TestTickCostIsHistoryIndependent: a tick reconciles the live objects
// and does not so much as look at a parked one.
func TestTickCostIsHistoryIndependent(t *testing.T) {
	const parked, live = 5000, 4
	c := parkedController(t, parked, live)
	defer c.Stop()
	// Any touch of a parked object now dereferences nil.
	for _, id := range c.order[:parked] {
		c.objects[id] = nil
	}
	c.tick() // admits and dispatches each live object once
	if c.Dispatches != live || c.Resends != 0 {
		t.Fatalf("first tick: %d dispatches, %d resends; want %d, 0", c.Dispatches, c.Resends, live)
	}
	c.Node.Sched.RunFor(c.Config.ProbeAfter + c.Config.Period)
	// The ticks inside that window re-probe each live object exactly once.
	if c.Dispatches != live || c.Resends != live {
		t.Fatalf("after the probe window: %d dispatches, %d resends; want %d, %d",
			c.Dispatches, c.Resends, live, live)
	}
	if len(c.live) != live {
		t.Fatalf("live set has %d objects, want %d", len(c.live), live)
	}
}

func BenchmarkControllerTick(b *testing.B) {
	for _, parked := range []int{0, 1000, 10000} {
		b.Run(fmt.Sprintf("parked=%d", parked), func(b *testing.B) {
			c := parkedController(b, parked, 4)
			defer c.Stop()
			// Off instant zero (where every tick sends a hello), then one
			// tick to admit and dispatch: what is timed is the steady state.
			c.Node.Sched.RunFor(time.Millisecond)
			c.tick()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.tick()
			}
		})
	}
}
