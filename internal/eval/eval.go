package eval

import (
	"fmt"
	"strings"

	"dvemig/internal/dve"
	"dvemig/internal/simtime"
)

// Fig5bTable renders the freeze-time sweep like the paper's Fig 5b: one
// row per connection count, one column per strategy, values in
// milliseconds.
func Fig5bTable(points []*FreezePoint) string {
	return sweepTable(points, "worst-case process freeze time (ms)", func(p *FreezePoint) string {
		return fmt.Sprintf("%10.1f", float64(p.WorstFreeze)/1e6)
	})
}

// Fig5cTable renders the socket-bytes sweep like Fig 5c (bytes moved in
// the freeze phase).
func Fig5cTable(points []*FreezePoint) string {
	return sweepTable(points, "socket data transferred during freeze (bytes)", func(p *FreezePoint) string {
		return fmt.Sprintf("%10s", fmtBytes(p.WorstSockBytes))
	})
}

func sweepTable(points []*FreezePoint, title string, cell func(*FreezePoint) string) string {
	byKey := map[[2]int]*FreezePoint{}
	conns := map[int]bool{}
	for _, p := range points {
		byKey[[2]int{p.Conns, int(p.Strategy)}] = p
		conns[p.Conns] = true
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%8s", title, "conns")
	for _, s := range SweepStrategies {
		fmt.Fprintf(&b, "%24s", s)
	}
	b.WriteByte('\n')
	for _, n := range SweepConns {
		if !conns[n] {
			continue
		}
		fmt.Fprintf(&b, "%8d", n)
		for _, s := range SweepStrategies {
			if p := byKey[[2]int{n, int(s)}]; p != nil {
				fmt.Fprintf(&b, "%24s", strings.TrimSpace(cell(p)))
			} else {
				fmt.Fprintf(&b, "%24s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func fmtBytes(n uint64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fkB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

// DVESummary condenses a Fig 5d/e/f run for console output.
func DVESummary(r *dve.Results, lbOn bool) string {
	var b strings.Builder
	label := "disabled"
	if lbOn {
		label = "enabled"
	}
	fmt.Fprintf(&b, "DVE simulation, load balancing %s\n", label)
	fmt.Fprintf(&b, "  migrations: %d, final CPU spread (max-min over last quarter): %.1f%%\n",
		r.Migrations, r.FinalSpread)
	fmt.Fprintf(&b, "  interactivity floor: %.1f updates/s (20 = never degraded)\n", r.WorstUpdateRate())
	for _, name := range r.CPU.Names() {
		s := r.CPU.Get(name)
		tail := s.After(s.Times[len(s.Times)-1] * 3 / 4)
		fmt.Fprintf(&b, "  %s: start %.1f%%, end-mean %.1f%%, max %.1f%%\n",
			name, s.Values[0], tail.Mean(), s.Max())
	}
	if len(r.FreezeTimes) > 0 {
		var worst simtime.Duration
		for _, f := range r.FreezeTimes {
			if f > worst {
				worst = f
			}
		}
		fmt.Fprintf(&b, "  worst migration freeze: %.1fms\n", float64(worst)/1e6)
	}
	return b.String()
}
