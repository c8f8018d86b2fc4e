package main

import (
	"bufio"
	"context"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dvemig/internal/simprof"
)

// tracedRun is the separate traced pass over a workload: the repo's
// simprof plane attached through the public Prof seams at stride 1,
// and benchmark-owned spans around each call into eval / dve.
type tracedRun struct {
	ls   loopStats
	prof *simprof.Report
}

func runTraced(w *workload, seed uint64, iters int, tr *tracer) tracedRun {
	prof := simprof.New(1)
	ls := runLoop(w, seed, iters, 0, prof, tr)
	return tracedRun{ls: ls, prof: prof.Report()}
}

// perLayer assembles the workload-dependent layer metrics: "trc" ones
// from the traced run, "sim" ones (exact functions of the seed) from
// the untraced run's simulated-statistics window. The driver metrics
// are merged in by the caller.
func perLayer(ls *loopStats, traced tracedRun, spans []spanSummary) map[string]float64 {
	m := map[string]float64{}
	untracedMs, tracedMs := nsToMs(ls.wallNs), nsToMs(traced.ls.wallNs)
	tracedIters := float64(len(tracedMs))

	// Event-loop attribution. A bucket's wall includes everything run
	// downstream of its events, so "netsim" carries the netstack and
	// socket-callback work a packet delivery triggers.
	var loopNs, events, pendingAvg float64
	share := map[string]float64{}
	if lt := traced.prof.EventLoopTotal; lt != nil {
		loopNs, events, pendingAvg = float64(lt.WallNs), float64(lt.Events), lt.PendingAvg
		for _, b := range lt.Buckets {
			share[layerOfBucket(b.Subsystem)] += b.Frac
		}
	}
	m["simtime.events_per_iter"] = events / tracedIters
	m["simtime.wall_ns_per_event"] = median(untracedMs) * 1e6 / (events / tracedIters)
	m["simtime.pending_avg"] = pendingAvg
	m["netsim.loop_share"] = share["netsim"]
	m["proc.loop_share"] = share["proc"]
	m["migration.loop_share"] = share["migration"]
	m["ctlplane.loop_share"] = share["ctlplane"]
	m["lb.loop_share"] = share["lb"]

	phaseMs := map[string]float64{}
	for _, p := range traced.prof.PhaseSkewTotal {
		phaseMs[p.Phase] = float64(p.WallNs) / 1e6 / tracedIters
	}
	for _, ph := range []string{"precopy", "freeze", "transfer", "restore", "reinject", "prefetch"} {
		m["migration.phase_wall_ms."+ph] = phaseMs[ph]
	}

	var tracedWallNs float64
	for _, ns := range traced.ls.wallNs {
		tracedWallNs += float64(ns)
	}
	m["harness.iter_wall_ms_p90"] = percentile(untracedMs, 90)
	m["harness.trace_overhead_pct"] = (median(tracedMs)/median(untracedMs) - 1) * 100
	m["harness.unattributed_share"] = 1 - loopNs/tracedWallNs
	m["harness.gc_pause_ms_per_iter"] = float64(ls.gcPauseNs) / 1e6 / float64(len(ls.wallNs))
	m["harness.peak_rss_mb"] = peakRSSMB()
	m["harness.cpus"] = float64(runtime.NumCPU())
	m["harness.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))

	var newMs float64
	for _, s := range spans {
		if s.Name == "dve.New" {
			newMs = s.TotalMs / float64(s.Count)
		}
	}
	m["dve.new_ms"] = newMs

	simLayers(m, ls)
	return m
}

// layerOfBucket maps a simprof event-name bucket to the module whose
// code the events run: process loops are named after their process.
func layerOfBucket(bucket string) string {
	switch {
	case strings.HasPrefix(bucket, "zone_serv"), strings.HasPrefix(bucket, "svc"):
		return "proc"
	case bucket == "migd":
		return "migration"
	case bucket == "cond":
		return "lb"
	}
	return bucket
}

// simLayers fills the simulated layer statistics. Where an entry point
// does not expose a statistic (soak3 reports downtimes only; only the
// DVE run has a balancer) the metric reads 0.
func simLayers(m map[string]float64, ls *loopStats) {
	down := ls.downtimesUs()
	m["migration.downtime_ms_p50"] = median(down) / 1e3
	m["migration.downtime_ms_p99"] = percentile(down, 99) / 1e3
	m["migration.downtime_ms_max"] = percentile(down, 100) / 1e3

	var totalMs, rounds, pageMB, captured, reinjected []float64
	var sockKBMax, retrans float64
	var soak soakTotals
	var dve dveTotals
	for i, o := range ls.outs {
		retrans += float64(o.clientRetrans)
		for _, mg := range o.migs {
			totalMs = append(totalMs, float64(mg.TotalTime)/1e6)
			rounds = append(rounds, float64(mg.Rounds))
			pageMB = append(pageMB, float64(mg.MemPageBytes)/1e6)
			captured = append(captured, float64(mg.Captured))
			reinjected = append(reinjected, float64(mg.Reinjected))
			if kb := float64(mg.FreezeSockBytes) / 1e3; kb > sockKBMax {
				sockKBMax = kb
			}
		}
		soak.requests += o.soak.requests
		soak.failed += o.soak.failed
		soak.aborted += o.soak.aborted
		soak.retries += o.soak.retries
		soak.dispatches += o.soak.dispatches
		soak.resends += o.soak.resends
		soak.dedups += o.soak.dedups
		soak.takeovers += o.soak.takeovers
		dve.migrations += o.dve.migrations
		dve.spreadPct += o.dve.spreadPct
		dve.outageClientS += o.dve.outageClientS
		if i == 0 || o.dve.minHz < dve.minHz {
			dve.minHz = o.dve.minHz
		}
	}
	iters := float64(len(ls.outs))
	m["netstack.client_retransmits"] = retrans
	m["sockmig.freeze_sock_kb_max"] = sockKBMax
	m["capture.captured_per_migration"] = mean(captured)
	m["capture.reinjected_per_migration"] = mean(reinjected)
	m["migration.precopy_rounds"] = mean(rounds)
	m["migration.mem_page_mb"] = mean(pageMB)
	m["migration.total_ms_p50"] = median(totalMs)

	perRequest := func(v float64) float64 {
		if soak.requests == 0 {
			return 0
		}
		return v / float64(soak.requests)
	}
	m["ctlplane.requests_per_s"] = 0
	if soak.requests > 0 { // every migration of the loop was a control-plane request
		m["ctlplane.requests_per_s"] = float64(ls.attempted) / (float64(ls.totalNs) / 1e9)
	}
	m["ctlplane.dispatches_per_request"] = perRequest(float64(soak.dispatches))
	m["ctlplane.retries_per_request"] = perRequest(float64(soak.retries))
	m["ctlplane.aborted_share"] = perRequest(float64(soak.aborted))
	m["ctlplane.failed_share"] = perRequest(float64(soak.failed))
	m["ctlplane.resends"] = float64(soak.resends) / iters
	m["ctlplane.dedups"] = float64(soak.dedups) / iters
	m["ctlplane.takeovers"] = float64(soak.takeovers) / iters

	m["lb.migrations"] = float64(dve.migrations) / iters
	m["lb.cpu_spread_pct"] = dve.spreadPct / iters
	m["lb.outage_client_s"] = dve.outageClientS / iters
	m["dve.worst_update_rate_hz"] = dve.minHz
}

// downtimesUs lists FreezeTime+StallTime of every migration completed
// in the simulated-statistics window.
func (ls *loopStats) downtimesUs() []float64 {
	var down []float64
	for _, o := range ls.outs {
		down = append(down, o.downUs...)
	}
	return down
}

// peakRSSMB is the process's resident-set high-water mark, 0 where
// /proc does not say.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1e3
		}
	}
	return 0
}

// host is the record of where the numbers were taken.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPUModel   string `json:"cpu_model"`
	GitCommit  string `json:"git_commit"`
}

func hostRecord() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		CPUModel: "unknown", GitCommit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if key, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "model name" {
				h.CPUModel = strings.TrimSpace(val)
				break
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if rev, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output(); err == nil {
		h.GitCommit = strings.TrimSpace(string(rev))
	}
	return h
}

// warnings flags a host whose numbers need care; none of them fails
// the run.
func (h host) warnings() []string {
	if h.GOMAXPROCS > h.NProc {
		return []string{"GOMAXPROCS exceeds the CPUs present; the garbage collector's helpers will contend with the driver goroutine"}
	}
	return nil
}
