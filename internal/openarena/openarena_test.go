package openarena

import (
	"testing"
	"time"

	"dvemig/internal/migration"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
)

func TestServerSnapshotCadence(t *testing.T) {
	sched := simtime.NewScheduler()
	c := proc.NewCluster(sched, 1)
	cfg := DefaultServerConfig()
	cfg.MemPages = 256 // keep the unit test light
	cfg.DirtyPerFrame = 16
	srv, err := StartServer(c.Nodes[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	host := c.NewExternalHost("players")
	var clients []*Client
	for i := 0; i < 4; i++ {
		cl, err := NewClient(host, c.ClusterIP)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, cl)
	}
	sched.RunUntil(2 * time.Second)
	// 20 frames/s for 2s ≈ 40 frames; each client gets ~1 snapshot per
	// frame after registration.
	if srv.Frames < 39 || srv.Frames > 41 {
		t.Fatalf("frames = %d", srv.Frames)
	}
	for i, cl := range clients {
		if cl.Received < 35 {
			t.Fatalf("client %d received only %d snapshots", i, cl.Received)
		}
		if cl.LastFrame < srv.Frames-2 {
			t.Fatalf("client %d stale: last frame %d of %d", i, cl.LastFrame, srv.Frames)
		}
	}
	if srv.SnapshotsSent == 0 {
		t.Fatal("no snapshots sent")
	}
}

func TestServerRegistersClientsDynamically(t *testing.T) {
	sched := simtime.NewScheduler()
	c := proc.NewCluster(sched, 1)
	cfg := DefaultServerConfig()
	cfg.MemPages = 64
	cfg.DirtyPerFrame = 4
	srv, err := StartServer(c.Nodes[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = srv
	host := c.NewExternalHost("players")
	cl1, _ := NewClient(host, c.ClusterIP)
	sched.RunUntil(time.Second)
	mid := cl1.Received
	if mid == 0 {
		t.Fatal("first client got nothing")
	}
	cl2, _ := NewClient(host, c.ClusterIP)
	sched.RunUntil(2 * time.Second)
	if cl2.Received == 0 {
		t.Fatal("late joiner got nothing")
	}
	if cl1.Received <= mid {
		t.Fatal("first client starved after join")
	}
}

func TestFig4MigrationDelay(t *testing.T) {
	cfg := DefaultFig4Config()
	res, err := RunFig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The regular cadence is the 50 ms frame period.
	if res.BaselineGap < 45*time.Millisecond || res.BaselineGap > 55*time.Millisecond {
		t.Fatalf("baseline gap = %v, want ≈50ms", res.BaselineGap)
	}
	// §VI-B: ~20 ms process downtime...
	if res.Metrics.FreezeTime < 5*time.Millisecond || res.Metrics.FreezeTime > 60*time.Millisecond {
		t.Fatalf("freeze = %v, want ≈20ms", res.Metrics.FreezeTime)
	}
	// ...and ≈25 ms packet-level delay over the expected transmission.
	if res.ExtraDelay < 5*time.Millisecond || res.ExtraDelay > 80*time.Millisecond {
		t.Fatalf("extra delay = %v, want ≈25ms", res.ExtraDelay)
	}
	// The 24 clients see groups of 24 packets; the trace must hold a
	// plausible number of them.
	if len(res.Trace.Records) < 24*40 {
		t.Fatalf("trace too small: %d records", len(res.Trace.Records))
	}
	// Capture prevented snapshot loss: each client received one snapshot
	// per frame it was registered for, minus at most the frames skipped
	// while frozen (freeze < one frame → at most 1) and the join frame.
	perClient := float64(res.TotalReceived) / 24
	if perClient < float64(res.ExpectedPerClient)-3 {
		t.Fatalf("snapshot loss: %.1f received of %d frames", perClient, res.ExpectedPerClient)
	}
	// UDP migration carried the socket: one UDP socket moved.
	if res.Metrics.UDPMigrated != 1 {
		t.Fatalf("UDPMigrated = %d", res.Metrics.UDPMigrated)
	}
}

func TestFig4UsercmdsSurviveMigration(t *testing.T) {
	// Clients keep sending during the migration; the server's client
	// table (program state) must survive so it keeps addressing all 24.
	cfg := DefaultFig4Config()
	cfg.Duration = 5 * 1e9
	res, err := RunFig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// After migration the stream continues: records exist in the last
	// half second.
	tail := res.Trace.Window(cfg.Duration-500*1e6, cfg.Duration)
	if len(tail) < 24*8 {
		t.Fatalf("stream did not continue after migration: %d tail records", len(tail))
	}
	mig := migration.DefaultConfig()
	_ = mig
}
