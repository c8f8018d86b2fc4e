// Package trace provides the measurement instruments of the evaluation:
// a tcpdump-style packet tracer (Fig 4 captures server packets with
// tcpdump) and time-series recorders for CPU and process-count plots
// (Fig 5d/5e/5f).
package trace

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"dvemig/internal/netsim"
	"dvemig/internal/simtime"
)

// Record is one captured packet.
type Record struct {
	At  simtime.Time
	Dir netsim.TapEvent // TapTx or TapRx
	// Summary fields copied out of the packet (the packet itself may be
	// rewritten downstream by the stack's translation slot).
	Proto   byte
	SrcIP   netsim.Addr
	DstIP   netsim.Addr
	SrcPort uint16
	DstPort uint16
	Seq     uint32
	Len     int
	Flags   byte
}

// PacketTrace is a packet tap that retains a record per transmitted or
// received packet, optionally filtered by transport port.
type PacketTrace struct {
	// FilterPort, when non-zero, keeps only packets with this source or
	// destination port.
	FilterPort uint16
	// FilterDir, when set, keeps only TapTx or only TapRx records.
	FilterDir netsim.TapEvent

	Records []Record

	// DirFiltered / LastDirFiltered are the freeze-gap marker for
	// direction-filtered captures: how many port-matching packets the
	// direction filter dropped and when the most recent one passed. Fig
	// 4's analysis reads them to tell a true freeze (both directions
	// silent) from a one-sided silence (e.g. a tx-only capture of a
	// frozen server that is still receiving client traffic). They are a
	// side channel only — Gaps() is defined over the kept Records, so a
	// filtered packet landing mid-handshake between two kept packets
	// never splits their gap.
	DirFiltered     uint64
	LastDirFiltered simtime.Time
}

// PacketEvent implements netsim.Tap. Only packets that crossed the NIC
// are traced: what the fault plane did to one is not tcpdump's to see.
func (t *PacketTrace) PacketEvent(at simtime.Time, dir netsim.TapEvent, p *netsim.Packet) {
	if dir != netsim.TapTx && dir != netsim.TapRx {
		return
	}
	if t.FilterPort != 0 && p.SrcPort != t.FilterPort && p.DstPort != t.FilterPort {
		return
	}
	if t.FilterDir != 0 && dir != t.FilterDir {
		t.DirFiltered++
		t.LastDirFiltered = at
		return
	}
	t.Records = append(t.Records, Record{
		At: at, Dir: dir, Proto: p.Proto,
		SrcIP: p.SrcIP, DstIP: p.DstIP, SrcPort: p.SrcPort, DstPort: p.DstPort,
		Seq: p.Seq, Len: len(p.Payload), Flags: p.Flags,
	})
}

// Gaps returns the time differences between consecutive records — the
// quantity Fig 4 plots around the migration.
func (t *PacketTrace) Gaps() []simtime.Duration {
	if len(t.Records) < 2 {
		return nil
	}
	out := make([]simtime.Duration, 0, len(t.Records)-1)
	for i := 1; i < len(t.Records); i++ {
		out = append(out, t.Records[i].At-t.Records[i-1].At)
	}
	return out
}

// MaxGap returns the largest inter-packet gap and the time at which the
// later packet arrived.
func (t *PacketTrace) MaxGap() (simtime.Duration, simtime.Time) {
	var max simtime.Duration
	var at simtime.Time
	for i := 1; i < len(t.Records); i++ {
		if g := t.Records[i].At - t.Records[i-1].At; g > max {
			max = g
			at = t.Records[i].At
		}
	}
	return max, at
}

// Window returns the records with At in [from, to).
func (t *PacketTrace) Window(from, to simtime.Time) []Record {
	var out []Record
	for _, r := range t.Records {
		if r.At >= from && r.At < to {
			out = append(out, r)
		}
	}
	return out
}

// Series is a named time series of float samples.
type Series struct {
	Name   string
	Times  []simtime.Time
	Values []float64
}

// Add appends a sample.
func (s *Series) Add(at simtime.Time, v float64) {
	s.Times = append(s.Times, at)
	s.Values = append(s.Values, v)
}

// Len returns the sample count.
func (s *Series) Len() int { return len(s.Values) }

// Min and Max return value extremes (0 when empty).
func (s *Series) Min() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	m := s.Values[0]
	for _, v := range s.Values {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest sample.
func (s *Series) Max() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	m := s.Values[0]
	for _, v := range s.Values {
		if v > m {
			m = v
		}
	}
	return m
}

// Mean returns the average sample.
func (s *Series) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// After returns the sub-series with time ≥ from.
func (s *Series) After(from simtime.Time) *Series {
	out := &Series{Name: s.Name}
	for i, t := range s.Times {
		if t >= from {
			out.Add(t, s.Values[i])
		}
	}
	return out
}

// SeriesSet groups one series per node, keyed by name, preserving
// insertion order — the shape of the Fig 5 per-node plots.
type SeriesSet struct {
	order []string
	byKey map[string]*Series
}

// NewSeriesSet creates an empty set.
func NewSeriesSet() *SeriesSet {
	return &SeriesSet{byKey: make(map[string]*Series)}
}

// Get returns (creating if needed) the series with the given name.
func (ss *SeriesSet) Get(name string) *Series {
	s, ok := ss.byKey[name]
	if !ok {
		s = &Series{Name: name}
		ss.byKey[name] = s
		ss.order = append(ss.order, name)
	}
	return s
}

// Names returns series names in insertion order.
func (ss *SeriesSet) Names() []string { return append([]string(nil), ss.order...) }

// longest returns the series with the most samples (ties broken by
// insertion order). Table and CSV take their row times from it: sampling
// is aligned across series, but a series created mid-run (a node that
// joined late) or one that stopped early must not truncate the others.
// Earlier versions iterated the first series' times and silently dropped
// every later row.
func (ss *SeriesSet) longest() *Series {
	if len(ss.order) == 0 {
		return nil
	}
	best := ss.byKey[ss.order[0]]
	for _, n := range ss.order[1:] {
		if s := ss.byKey[n]; s.Len() > best.Len() {
			best = s
		}
	}
	return best
}

// Table renders the set as aligned rows (time in seconds, one column per
// series), the textual equivalent of the paper's figures.
func (ss *SeriesSet) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s", "t(s)")
	for _, n := range ss.order {
		fmt.Fprintf(&b, "%12s", n)
	}
	b.WriteByte('\n')
	longest := ss.longest()
	if longest == nil {
		return b.String()
	}
	for i, t := range longest.Times {
		fmt.Fprintf(&b, "%10.1f", t.Seconds())
		for _, n := range ss.order {
			s := ss.byKey[n]
			if i < len(s.Values) {
				fmt.Fprintf(&b, "%12.2f", s.Values[i])
			} else {
				fmt.Fprintf(&b, "%12s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the set as comma-separated rows with a header, suitable
// for gnuplot/spreadsheet import ("t_s,node1,node2,...").
func (ss *SeriesSet) CSV() string {
	var b strings.Builder
	b.WriteString("t_s")
	for _, n := range ss.order {
		b.WriteByte(',')
		b.WriteString(n)
	}
	b.WriteByte('\n')
	longest := ss.longest()
	if longest == nil {
		return b.String()
	}
	for i, t := range longest.Times {
		fmt.Fprintf(&b, "%.3f", t.Seconds())
		for _, n := range ss.order {
			s := ss.byKey[n]
			if i < len(s.Values) {
				fmt.Fprintf(&b, ",%.4f", s.Values[i])
			} else {
				b.WriteString(",")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Percentile returns the p-th percentile (0-100) of the values using
// linear interpolation between closest ranks (the same estimator as
// numpy's default). p outside [0,100] clamps to the extremes; the input
// slice is not mutated. Earlier versions truncated the fractional rank,
// which biased every non-exact percentile (p99 included) toward the
// next-lower sample.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	if p <= 0 {
		return v[0]
	}
	if p >= 100 {
		return v[len(v)-1]
	}
	rank := p / 100 * float64(len(v)-1)
	lo := int(math.Floor(rank))
	frac := rank - float64(lo)
	if frac == 0 || lo+1 >= len(v) {
		return v[lo]
	}
	return v[lo] + frac*(v[lo+1]-v[lo])
}
