package main

import (
	"fmt"
	"io"

	"dvemig/internal/openarena"
	"dvemig/internal/simtime"
)

// oabench regenerates the Fig 4 experiment: an OpenArena-style UDP game
// server with 24 connected clients is live-migrated mid-game; server
// packets are captured tcpdump-style at the players' access link and
// the migration-imposed delay is reported, together with the process
// freeze time (§VI-B reports ≈20 ms downtime and ≈25 ms packet delay).
func oabench(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("oabench", stderr)
	clients := fs.Int("clients", 24, "number of connected players")
	plot := fs.Bool("plot", true, "print packet-number-vs-time rows around the migration (Fig 4)")
	fs.Parse(args)

	cfg := openarena.DefaultFig4Config()
	cfg.Clients = *clients
	res, err := openarena.RunFig4(cfg)
	if err != nil {
		return die(fs, 1, err)
	}

	if *plot {
		fmt.Fprintln(stdout, "=== Fig 4: packets around the migration ===")
		fmt.Fprintf(stdout, "%12s %10s\n", "t-rel (ms)", "packet #")
		_, gapAt := res.Trace.MaxGap()
		window := res.Trace.Window(gapAt-150*1e6, gapAt+200*1e6)
		base := simtime.Time(0)
		if len(window) > 0 {
			base = window[0].At
		}
		for i, rec := range window {
			fmt.Fprintf(stdout, "%12.3f %10d\n", float64(rec.At-base)/1e6, i)
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "clients:                 %d\n", cfg.Clients)
	fmt.Fprintf(stdout, "server frame period:     %.0f ms (20 updates/s)\n", float64(cfg.Server.FramePeriod)/1e6)
	fmt.Fprintf(stdout, "process freeze time:     %.1f ms   (paper: ~20 ms)\n", float64(res.Metrics.FreezeTime)/1e6)
	fmt.Fprintf(stdout, "regular packet cadence:  %.1f ms\n", float64(res.BaselineGap)/1e6)
	fmt.Fprintf(stdout, "max gap at migration:    %.1f ms\n", float64(res.MaxGap)/1e6)
	fmt.Fprintf(stdout, "delay due to migration:  %.1f ms   (paper: ~25 ms)\n", float64(res.ExtraDelay)/1e6)
	fmt.Fprintf(stdout, "captured during freeze:  %d packets, reinjected %d\n", res.Metrics.Captured, res.Metrics.Reinjected)
	fmt.Fprintf(stdout, "snapshots received/sent: %d / %d per client frames\n", res.TotalReceived, res.ExpectedPerClient)
	return 0
}
