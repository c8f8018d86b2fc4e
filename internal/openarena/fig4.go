package openarena

import (
	"fmt"

	"dvemig/internal/migration"
	"dvemig/internal/netsim"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
	"dvemig/internal/trace"
)

// Fig4Config parameterizes the §VI-B experiment: live-migrate an
// OpenArena server with 24 connected clients and measure the packet-level
// delay with tcpdump.
type Fig4Config struct {
	Clients   int
	Server    ServerConfig
	MigCfg    migration.Config
	MigrateAt simtime.Duration
	Duration  simtime.Duration
}

// DefaultFig4Config mirrors the paper's run.
func DefaultFig4Config() Fig4Config {
	return Fig4Config{
		Clients:   24,
		Server:    DefaultServerConfig(),
		MigCfg:    migration.DefaultConfig(),
		MigrateAt: 2 * 1e9,
		Duration:  4 * 1e9,
	}
}

// Fig4Result reports the experiment.
type Fig4Result struct {
	// Trace holds every server→client snapshot packet seen at the
	// players' access link (the tcpdump of Fig 4).
	Trace *trace.PacketTrace
	// Metrics is the migration's engine-side measurement (its FreezeTime
	// is the "20 milliseconds downtime" figure of §VI-B).
	Metrics *migration.Metrics
	// MaxGap is the largest pause between consecutive snapshot groups;
	// BaselineGap is the regular cadence (≈50 ms); ExtraDelay is their
	// difference — the ≈25 ms Fig 4 annotates.
	MaxGap      simtime.Duration
	BaselineGap simtime.Duration
	ExtraDelay  simtime.Duration
	// TotalReceived sums snapshots over all clients; ExpectedPerClient is
	// the frame count while connected (loss shows as a deficit).
	TotalReceived     uint64
	ExpectedPerClient uint64
}

// RunFig4 executes the experiment and returns the measurements.
func RunFig4(cfg Fig4Config) (*Fig4Result, error) {
	sched := simtime.NewScheduler()
	cluster := proc.NewCluster(sched, 2)
	var migs []*migration.Migrator
	for _, n := range cluster.Nodes {
		m, err := migration.NewMigrator(n, cfg.MigCfg)
		if err != nil {
			return nil, err
		}
		migs = append(migs, m)
	}
	srv, err := StartServer(cluster.Nodes[0], cfg.Server)
	if err != nil {
		return nil, err
	}

	host := cluster.NewExternalHost("players")
	tap := &trace.PacketTrace{FilterPort: GamePort, FilterDir: netsim.TapRx}
	// The external host's NIC is the players' access link; sniff it.
	hostNICSniff(cluster, tap)

	// Players join staggered across one frame so their command traffic is
	// spread in time, as real clients' would be.
	clients := make([]*Client, 0, cfg.Clients)
	stagger := FramePeriod / simtime.Duration(cfg.Clients)
	for i := 0; i < cfg.Clients; i++ {
		at := simtime.Duration(i) * stagger
		sched.At(at, "fig4.join", func() {
			c, err := NewClient(host, cluster.ClusterIP)
			if err != nil {
				panic(err) // cannot happen: host has a default route
			}
			clients = append(clients, c)
		})
	}

	var mm *migration.Metrics
	var migErr error
	sched.At(cfg.MigrateAt, "fig4.migrate", func() {
		migs[0].Migrate(srv.Proc, cluster.Nodes[1].LocalIP, func(m *migration.Metrics, err error) {
			mm, migErr = m, err
		})
	})
	sched.RunUntil(cfg.Duration)
	for _, c := range clients {
		c.Stop()
	}
	sched.RunFor(200 * 1e6)
	if migErr != nil {
		return nil, fmt.Errorf("fig4: migration failed: %w", migErr)
	}
	if mm == nil {
		return nil, fmt.Errorf("fig4: migration did not finish")
	}

	res := &Fig4Result{Trace: tap, Metrics: mm}
	res.MaxGap, _ = tap.MaxGap()
	res.BaselineGap = baselineGap(tap, cfg.MigrateAt)
	res.ExtraDelay = res.MaxGap - res.BaselineGap
	for _, c := range clients {
		res.TotalReceived += c.Received
	}
	res.ExpectedPerClient = srv.Frames
	return res, nil
}

// hostNICSniff attaches the tap to the most recently attached external
// NIC (the players' host).
func hostNICSniff(c *proc.Cluster, tap *trace.PacketTrace) {
	// NewExternalHost attaches exactly one NIC per host; reach it through
	// the router by re-attaching a sniffer on the last external NIC. The
	// cluster API does not expose it directly, so we register during
	// creation instead — see NewExternalHostNIC below.
	nic := c.LastExternalNIC()
	if nic != nil {
		nic.AttachTap(tap)
	}
}

// baselineGap returns the typical (median) inter-group gap before the
// migration: group boundaries are gaps larger than a quarter frame.
func baselineGap(t *trace.PacketTrace, before simtime.Duration) simtime.Duration {
	var gaps []float64
	recs := t.Window(0, before)
	for i := 1; i < len(recs); i++ {
		g := recs[i].At - recs[i-1].At
		if g > 10*1e6 { // ignore intra-group spacing
			gaps = append(gaps, float64(g))
		}
	}
	if len(gaps) == 0 {
		return 0
	}
	return simtime.Duration(trace.Percentile(gaps, 50))
}
