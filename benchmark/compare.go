package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
)

// runCompare prints one row per workload × end-to-end metric for two
// sides, each one result file or a comma-separated set of them (a set
// gives the base side a run-to-run spread). It returns the exit code: 1
// when any row regressed.
func runCompare(specPath, aList, bList string) int {
	sp, err := loadSpec(specPath)
	if err != nil {
		fatalf("%v", err)
	}
	a, err := readResults(aList)
	if err != nil {
		fatalf("%v", err)
	}
	b, err := readResults(bList)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("a: %d run(s) of %s on %s\nb: %d run(s) of %s on %s\n",
		len(a), a[0].Host.GitCommit, a[0].Host.CPUModel, len(b), b[0].Host.GitCommit, b[0].Host.CPUModel)
	fmt.Printf("%-8s %-20s %14s %14s %9s %7s %6s  %s\n", "workload", "metric", "a (median)", "b (median)", "b/a", "spread", "bound", "verdict")
	regressed := false
	for _, w := range sp.Workloads {
		wa, wb := pick(a, w.Name), pick(b, w.Name)
		if len(wa) == 0 || len(wb) == 0 {
			continue
		}
		for _, m := range sp.EndToEnd {
			va, vb := values(wa, m.Name), values(wb, m.Name)
			c := compareMetric(m, va, vb)
			spread := "n/a"
			if !math.IsNaN(c.spread) {
				spread = fmt.Sprintf("%.1f%%", c.spread*100)
			}
			fmt.Printf("%-8s %-20s %14.6g %14.6g %9.4f %7s %5.0f%%  %s\n",
				w.Name, m.Name, c.a, c.b, c.b/c.a, spread, m.Bound*100, c.verdict)
			regressed = regressed || c.verdict == "regressed"
		}
		fmt.Printf("%-8s %-20s %14d %14d\n", w.Name, "failed", failedOf(wa), failedOf(wb))
		fmt.Printf("%-8s %-20s %s\n", w.Name, "sim_digest", digestVerdict(a, b, w.Name))
	}
	if regressed {
		return 1
	}
	return 0
}

func readResults(list string) ([]*result, error) {
	var out []*result
	for _, path := range strings.Split(list, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		r := new(result)
		if err := json.Unmarshal(data, r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, nil
}

func pick(rs []*result, workload string) []*workloadResult {
	var out []*workloadResult
	for _, r := range rs {
		for i := range r.Workloads {
			if r.Workloads[i].Name == workload {
				out = append(out, &r.Workloads[i])
			}
		}
	}
	return out
}

func values(ws []*workloadResult, metric string) []float64 {
	var out []float64
	for _, w := range ws {
		if v, ok := w.EndToEnd[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}

func failedOf(ws []*workloadResult) int {
	n := 0
	for _, w := range ws {
		n += w.Failed
	}
	return n
}

// digestVerdict compares sim_digest between runs of the two sides that
// used the same seed; the digest is an exact function of the seed, so
// any difference is a change in simulated behaviour.
func digestVerdict(a, b []*result, workload string) string {
	compared := 0
	for _, ra := range a {
		for _, rb := range b {
			if ra.Seed != rb.Seed {
				continue
			}
			wa, wb := pick([]*result{ra}, workload), pick([]*result{rb}, workload)
			if len(wa) == 0 || len(wb) == 0 {
				continue
			}
			compared++
			if wa[0].SimDigest != wb[0].SimDigest {
				return fmt.Sprintf("differs at seed %d: %s vs %s", ra.Seed, wa[0].SimDigest, wb[0].SimDigest)
			}
		}
	}
	if compared == 0 {
		return "not compared (no seed in common)"
	}
	return "identical"
}

type comparison struct {
	a, b    float64 // medians
	spread  float64 // IQR of a's runs as a share of their median; NaN below 4 runs
	verdict string
}

// compareMetric applies the benchmark's regression rule: b regressed
// when its median is worse than a's by more than the bound. Where a's
// own runs spread wider than the bound the row is unresolved, unless
// every run of b reads better than every run of a.
func compareMetric(m metricSpec, a, b []float64) comparison {
	c := comparison{a: median(a), b: median(b), spread: math.NaN(), verdict: "ok"}
	worse := (c.b - c.a) / c.a
	if m.Better == "higher" {
		worse = -worse
	}
	if len(a) >= 4 {
		q1, q3 := quartiles(a)
		c.spread = (q3 - q1) / c.a
	}
	switch {
	case c.spread > m.Bound:
		if !allBetter(m, a, b) {
			c.verdict = "unresolved"
		}
	case worse > m.Bound:
		c.verdict = "regressed"
	}
	return c
}

func allBetter(m metricSpec, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if (m.Better == "higher" && y <= x) || (m.Better != "higher" && y >= x) {
				return false
			}
		}
	}
	return true
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), so spreads
// printed here match the ones the acceptance procedure computes.
func quartiles(v []float64) (q1, q3 float64) {
	s, n := sorted(v), len(v)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
