package ctlplane

import (
	"slices"
	"testing"
	"time"

	"dvemig/internal/migration"
	"dvemig/internal/netstack"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
)

// FuzzObjectCodec feeds arbitrary bytes to the Migration spec/status
// wire codec — the replication payload. The decoder must never panic,
// must reject truncated/trailing/garbage frames, and every frame it
// accepts must survive an encode/decode roundtrip unchanged.
func FuzzObjectCodec(f *testing.F) {
	full := &Object{
		Spec: Spec{ID: 7, PID: 42, Name: "zone", Source: 0xC0A80101, Dest: 0xC0A80102,
			Strategy: "hybrid", Epoch: 3, Deadline: 20 * time.Second, MaxRetries: 2},
		Status: Status{State: Failed, Attempt: 3, Retries: 2,
			Cause:           []string{"attempt 1 aborted: x", "retries exhausted"},
			CancelRequested: true, SubmitAt: 1e9, DoneAt: 2e9},
	}
	f.Add(AppendObject(nil, full))
	f.Add(AppendObject(nil, &Object{}))
	f.Add([]byte{})
	f.Add([]byte{objCodecVersion})
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		o, err := DecodeObject(data)
		if err != nil {
			return
		}
		back := AppendObject(nil, o)
		o2, err := DecodeObject(back)
		if err != nil {
			t.Fatalf("re-decode of accepted frame failed: %v", err)
		}
		if o2.Spec != o.Spec {
			t.Fatalf("spec roundtrip broken: %+v != %+v", o2.Spec, o.Spec)
		}
		if o2.Status.State != o.Status.State || o2.Status.Attempt != o.Status.Attempt ||
			o2.Status.Retries != o.Status.Retries ||
			o2.Status.CancelRequested != o.Status.CancelRequested ||
			o2.Status.SubmitAt != o.Status.SubmitAt || o2.Status.DoneAt != o.Status.DoneAt ||
			len(o2.Status.Cause) != len(o.Status.Cause) {
			t.Fatalf("status roundtrip broken: %+v != %+v", o2.Status, o.Status)
		}
		for i := range o.Status.Cause {
			if o2.Status.Cause[i] != o.Status.Cause[i] {
				t.Fatalf("cause[%d] roundtrip broken", i)
			}
		}
	})
}

// FuzzCtlFrames covers the control-plane datagram decoders (run,
// cancel, event, hello, replicate): no panics, and accepted frames
// roundtrip through their encoders.
func FuzzCtlFrames(f *testing.F) {
	f.Add(runMsg{CtlEpoch: 2, ObjID: 9, Attempt: 1, PID: 4, Dest: 0x0A000001,
		SvcEpoch: 5, Strategy: "postcopy", Name: "zone"}.appendTo(nil))
	f.Add(cancelMsg{CtlEpoch: 2, ObjID: 9, Attempt: 1, Reason: "deadline"}.appendTo(nil))
	f.Add(eventMsg{CtlEpoch: 2, ObjID: 9, Attempt: 1, Kind: evAborted,
		SvcEpoch: 5, Detail: "connect refused"}.appendTo(nil))
	f.Add(helloMsg{CtlEpoch: 3, Seq: 11}.appendTo(nil))
	f.Add(appendReplicate(nil, 4, &Object{Spec: Spec{ID: 1, Name: "z"}}))
	f.Add([]byte{opRun})
	f.Add([]byte{opEvent, 0xFF})
	f.Add([]byte{0xEE, 0xEE, 0xEE})
	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := decodeRunMsg(data); err == nil {
			back, err2 := decodeRunMsg(m.appendTo(nil))
			if err2 != nil || back != m {
				t.Fatalf("run roundtrip broken: %+v vs %+v (%v)", back, m, err2)
			}
		}
		if m, err := decodeCancelMsg(data); err == nil {
			back, err2 := decodeCancelMsg(m.appendTo(nil))
			if err2 != nil || back != m {
				t.Fatalf("cancel roundtrip broken: %+v vs %+v (%v)", back, m, err2)
			}
		}
		if m, err := decodeEventMsg(data); err == nil {
			back, err2 := decodeEventMsg(m.appendTo(nil))
			if err2 != nil || back != m {
				t.Fatalf("event roundtrip broken: %+v vs %+v (%v)", back, m, err2)
			}
		}
		if m, err := decodeHelloMsg(data); err == nil {
			back, err2 := decodeHelloMsg(m.appendTo(nil))
			if err2 != nil || back != m {
				t.Fatalf("hello roundtrip broken: %+v vs %+v (%v)", back, m, err2)
			}
		}
		var o, o2 Object
		if ep, err := decodeReplicate(&o, data, nil); err == nil {
			// Decoded again against a store that holds the object already:
			// the compare-before-copy path must read the same frame the same.
			ep2, err2 := decodeReplicate(&o2, appendReplicate(nil, ep, &o), map[uint64]*Object{o.Spec.ID: &o})
			if err2 != nil || ep2 != ep || o2.Spec != o.Spec || !slices.Equal(o2.Status.Cause, o.Status.Cause) {
				t.Fatalf("replicate roundtrip broken (%v)", err2)
			}
		}
	})
}

// FuzzControllerServe throws raw datagrams — truncated, garbage, and
// stale-epoch frames — at a live primary controller's watch-event port.
// Whatever arrives, the controller must not panic, must not let a
// forged event corrupt an object, and must keep reconciling: a real
// migration submitted afterwards still completes.
func FuzzControllerServe(f *testing.F) {
	f.Add(eventMsg{CtlEpoch: 0, ObjID: 1, Attempt: 1, Kind: evSucceeded}.appendTo(nil)) // stale epoch, forged success
	f.Add(eventMsg{CtlEpoch: ^uint64(0), ObjID: 1, Attempt: 1, Kind: evStaleCtl}.appendTo(nil))
	f.Add(helloMsg{CtlEpoch: ^uint64(0), Seq: 1}.appendTo(nil))
	f.Add(appendReplicate(nil, 9, &Object{Spec: Spec{ID: 1, Name: "zone"}}))
	f.Add([]byte{opEvent})
	f.Add([]byte{0xEE})
	f.Fuzz(func(t *testing.T, data []byte) {
		sched := simtime.NewScheduler()
		cluster := proc.NewCluster(sched, 3)
		mig, err := migration.NewMigrator(cluster.Nodes[0], fastMigConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := migration.NewMigrator(cluster.Nodes[1], fastMigConfig()); err != nil {
			t.Fatal(err)
		}
		if _, err := NewAgent(cluster.Nodes[0], mig, nil); err != nil {
			t.Fatal(err)
		}
		ctl, err := NewController(cluster.Nodes[2], 0, true, fastCtlConfig())
		if err != nil {
			t.Fatal(err)
		}
		atk := netstack.NewUDPSocket(cluster.Nodes[1].Stack)
		atk.BindEphemeral(cluster.Nodes[1].LocalIP)
		if err := atk.SendTo(cluster.Nodes[2].LocalIP, CtlPort, data); err != nil {
			t.Fatal(err)
		}
		sched.RunFor(100 * time.Millisecond)
		// The controller must still reconcile real work end to end.
		p := cluster.Nodes[0].Spawn("zone", 1)
		p.AS.Mmap(8*proc.PageSize, "rw-")
		cluster.Nodes[0].StartLoop(p, 50*time.Millisecond)
		o, err := ctl.Submit(Spec{PID: p.PID, Name: "zone",
			Source: cluster.Nodes[0].LocalIP, Dest: cluster.Nodes[1].LocalIP, MaxRetries: -1})
		if err != nil {
			// A forged hello with a higher epoch may have demoted the
			// controller — that is fencing working as designed, not a wedge.
			if ctl.Primary {
				t.Fatalf("submit refused while primary: %v", err)
			}
			return
		}
		sched.RunFor(15 * time.Second)
		if o.Status.State != Succeeded {
			t.Fatalf("controller wedged after fuzz frame: %s %v", o.Status.State, o.Status.Cause)
		}
	})
}

// FuzzAgentServe does the same for a live agent's directive port: the
// run/cancel decoders and the dedup/fence paths parse whatever arrives,
// and a legitimate run directive afterwards must still drive a
// migration exactly once.
func FuzzAgentServe(f *testing.F) {
	f.Add(runMsg{CtlEpoch: ^uint64(0), ObjID: 1, Attempt: 1, PID: 9999,
		Dest: 0xC0A80163, Name: "ghost"}.appendTo(nil)) // high epoch, bogus pid
	f.Add(cancelMsg{CtlEpoch: 1, ObjID: 77, Attempt: 1, Reason: "x"}.appendTo(nil))
	f.Add([]byte{opRun, 0, 1})
	f.Add([]byte{0xEE})
	f.Fuzz(func(t *testing.T, data []byte) {
		sched := simtime.NewScheduler()
		cluster := proc.NewCluster(sched, 3)
		mig, err := migration.NewMigrator(cluster.Nodes[0], fastMigConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := migration.NewMigrator(cluster.Nodes[1], fastMigConfig()); err != nil {
			t.Fatal(err)
		}
		ag, err := NewAgent(cluster.Nodes[0], mig, nil)
		if err != nil {
			t.Fatal(err)
		}
		p := cluster.Nodes[0].Spawn("zone", 1)
		p.AS.Mmap(8*proc.PageSize, "rw-")
		cluster.Nodes[0].StartLoop(p, 50*time.Millisecond)

		atk := netstack.NewUDPSocket(cluster.Nodes[2].Stack)
		atk.BindEphemeral(cluster.Nodes[2].LocalIP)
		if err := atk.SendTo(cluster.Nodes[0].LocalIP, AgentPort, data); err != nil {
			t.Fatal(err)
		}
		sched.RunFor(200 * time.Millisecond)
		// A fuzz frame may itself have been a valid directive for pid/zone;
		// whatever happened, a directive with a fresh object ID and the
		// maximum epoch must still be served (accepted or refused per the
		// admission rules — never ignored, never panicking).
		run := runMsg{CtlEpoch: ^uint64(0), ObjID: ^uint64(0), Attempt: 1,
			PID: uint32(p.PID), Dest: cluster.Nodes[1].LocalIP, Name: "zone"}
		if err := atk.SendTo(cluster.Nodes[0].LocalIP, AgentPort, run.appendTo(nil)); err != nil {
			t.Fatal(err)
		}
		sched.RunFor(15 * time.Second)
		if ag.Started == 0 && ag.Rejected == 0 && ag.Deduped == 0 {
			t.Fatal("agent wedged: real directive neither served nor refused")
		}
		if p.Node == nil {
			t.Fatal("process lost")
		}
		if ag.Started > 0 && mig.Migrating(p.PID) {
			t.Fatal("migration never settled")
		}
	})
}
