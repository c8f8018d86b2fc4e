package trace

import (
	"strings"
	"testing"
	"time"

	"dvemig/internal/netsim"
)

func rec(tr *PacketTrace, at time.Duration, dir netsim.TapEvent, sp, dp uint16) {
	tr.PacketEvent(at, dir, &netsim.Packet{Proto: netsim.ProtoUDP, SrcPort: sp, DstPort: dp, Payload: []byte("xy")})
}

func TestPacketTraceFilter(t *testing.T) {
	tr := &PacketTrace{FilterPort: 27960, FilterDir: netsim.TapTx}
	rec(tr, 0, netsim.TapTx, 27960, 5000)
	rec(tr, time.Millisecond, netsim.TapRx, 5000, 27960)  // wrong dir
	rec(tr, 2*time.Millisecond, netsim.TapTx, 1234, 5678) // wrong port
	rec(tr, 3*time.Millisecond, netsim.TapTx, 5000, 27960)
	rec(tr, 3*time.Millisecond, netsim.TapDropFault, 5000, 27960) // never crossed the NIC
	if len(tr.Records) != 2 {
		t.Fatalf("records = %d, want 2", len(tr.Records))
	}
}

// TestGapsWithDirectionFilters locks the freeze-gap semantics of
// one-sided captures: a simulated handshake interleaves tx and rx on
// port 7000, the server goes silent (frozen) from 100ms to 250ms while
// rx traffic keeps arriving, and the direction filters must (1) leave
// the gap computation over the kept records untouched — a filtered
// packet landing mid-handshake never splits a gap — and (2) record the
// dropped direction in the freeze-gap marker instead of discarding it.
func TestGapsWithDirectionFilters(t *testing.T) {
	type pkt struct {
		at  time.Duration
		dir netsim.TapEvent
	}
	flow := []pkt{
		{0, netsim.TapTx}, {5 * time.Millisecond, netsim.TapRx}, // handshake
		{50 * time.Millisecond, netsim.TapTx}, {60 * time.Millisecond, netsim.TapRx},
		{100 * time.Millisecond, netsim.TapTx}, // last server packet before freeze
		{150 * time.Millisecond, netsim.TapRx}, // client keeps sending into the freeze
		{200 * time.Millisecond, netsim.TapRx},
		{250 * time.Millisecond, netsim.TapTx}, // server resumes
		{255 * time.Millisecond, netsim.TapRx},
	}
	run := func(dir netsim.TapEvent) *PacketTrace {
		tr := &PacketTrace{FilterPort: 7000, FilterDir: dir}
		for _, p := range flow {
			rec(tr, p.at, p.dir, 7000, 5000)
		}
		return tr
	}

	tx := run(netsim.TapTx)
	wantTx := []time.Duration{50 * time.Millisecond, 50 * time.Millisecond, 150 * time.Millisecond}
	if gaps := tx.Gaps(); len(gaps) != len(wantTx) {
		t.Fatalf("tx gaps = %v, want %v", gaps, wantTx)
	} else {
		for i, w := range wantTx {
			if gaps[i] != w {
				t.Fatalf("tx gaps = %v, want %v", gaps, wantTx)
			}
		}
	}
	// The freeze shows up as the tx max gap even though rx packets
	// crossed the wire inside it (they must not split the gap)...
	if max, at := tx.MaxGap(); max != 150*time.Millisecond || at != 250*time.Millisecond {
		t.Fatalf("tx max gap = %v at %v", max, at)
	}
	// ...and the marker proves the silence was one-sided.
	if tx.DirFiltered != 5 || tx.LastDirFiltered != 255*time.Millisecond {
		t.Fatalf("tx marker = %d @ %v", tx.DirFiltered, tx.LastDirFiltered)
	}

	rx := run(netsim.TapRx)
	wantRx := []time.Duration{55 * time.Millisecond, 90 * time.Millisecond, 50 * time.Millisecond, 55 * time.Millisecond}
	if gaps := rx.Gaps(); len(gaps) != len(wantRx) {
		t.Fatalf("rx gaps = %v, want %v", gaps, wantRx)
	} else {
		for i, w := range wantRx {
			if gaps[i] != w {
				t.Fatalf("rx gaps = %v, want %v", gaps, wantRx)
			}
		}
	}
	if rx.DirFiltered != 4 || rx.LastDirFiltered != 250*time.Millisecond {
		t.Fatalf("rx marker = %d @ %v", rx.DirFiltered, rx.LastDirFiltered)
	}

	// An unfiltered capture sees every packet and no marker.
	all := run(0)
	if len(all.Records) != len(flow) || all.DirFiltered != 0 {
		t.Fatalf("unfiltered records = %d marker = %d", len(all.Records), all.DirFiltered)
	}
}

func TestGapsAndMaxGap(t *testing.T) {
	tr := &PacketTrace{}
	for _, at := range []time.Duration{0, 50 * time.Millisecond, 100 * time.Millisecond, 175 * time.Millisecond} {
		rec(tr, at, netsim.TapTx, 1, 2)
	}
	gaps := tr.Gaps()
	if len(gaps) != 3 || gaps[0] != 50*time.Millisecond || gaps[2] != 75*time.Millisecond {
		t.Fatalf("gaps = %v", gaps)
	}
	max, at := tr.MaxGap()
	if max != 75*time.Millisecond || at != 175*time.Millisecond {
		t.Fatalf("max gap = %v at %v", max, at)
	}
	if (&PacketTrace{}).Gaps() != nil {
		t.Fatal("empty trace gaps")
	}
}

func TestWindow(t *testing.T) {
	tr := &PacketTrace{}
	for i := 0; i < 10; i++ {
		rec(tr, time.Duration(i)*time.Second, netsim.TapTx, 1, 2)
	}
	w := tr.Window(3*time.Second, 6*time.Second)
	if len(w) != 3 || w[0].At != 3*time.Second {
		t.Fatalf("window = %v", w)
	}
}

func TestSeriesStats(t *testing.T) {
	s := &Series{Name: "node1"}
	for i, v := range []float64{80, 95, 65, 100} {
		s.Add(time.Duration(i)*time.Second, v)
	}
	if s.Len() != 4 || s.Min() != 65 || s.Max() != 100 || s.Mean() != 85 {
		t.Fatalf("stats: len=%d min=%v max=%v mean=%v", s.Len(), s.Min(), s.Max(), s.Mean())
	}
	after := s.After(2 * time.Second)
	if after.Len() != 2 || after.Values[0] != 65 {
		t.Fatalf("after = %+v", after)
	}
	empty := &Series{}
	if empty.Min() != 0 || empty.Max() != 0 || empty.Mean() != 0 {
		t.Fatal("empty series stats")
	}
}

func TestSeriesSetTable(t *testing.T) {
	ss := NewSeriesSet()
	for i := 0; i < 3; i++ {
		ss.Get("node1").Add(time.Duration(i)*time.Second, float64(90+i))
		ss.Get("node2").Add(time.Duration(i)*time.Second, float64(70-i))
	}
	names := ss.Names()
	if len(names) != 2 || names[0] != "node1" {
		t.Fatalf("names = %v", names)
	}
	tab := ss.Table()
	if !strings.Contains(tab, "node1") || !strings.Contains(tab, "92.00") {
		t.Fatalf("table:\n%s", tab)
	}
	lines := strings.Split(strings.TrimSpace(tab), "\n")
	if len(lines) != 4 {
		t.Fatalf("table rows = %d", len(lines))
	}
	if NewSeriesSet().Table() == "" {
		t.Fatal("empty set renders header")
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 3, 2, 4}
	if Percentile(vals, 0) != 1 || Percentile(vals, 100) != 5 || Percentile(vals, 50) != 3 {
		t.Fatal("percentile wrong")
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile")
	}
	// Input must not be mutated.
	if vals[0] != 5 {
		t.Fatal("percentile sorted its input")
	}
}

// TestPercentileInterpolation pins the linear-interpolation estimator
// on 1–5 samples at the percentiles the reports actually quote. The old
// rank-truncating implementation returned the next-lower sample for
// every non-exact rank (e.g. p99 of [1..5] was 4, not 4.96).
func TestPercentileInterpolation(t *testing.T) {
	cases := []struct {
		name string
		vals []float64
		p    float64
		want float64
	}{
		{"one/p0", []float64{7}, 0, 7},
		{"one/p50", []float64{7}, 50, 7},
		{"one/p99", []float64{7}, 99, 7},
		{"one/p100", []float64{7}, 100, 7},
		{"two/p0", []float64{10, 20}, 0, 10},
		{"two/p50", []float64{10, 20}, 50, 15},
		{"two/p99", []float64{10, 20}, 99, 19.9},
		{"two/p100", []float64{10, 20}, 100, 20},
		{"three/p0", []float64{3, 1, 2}, 0, 1},
		{"three/p50", []float64{3, 1, 2}, 50, 2},
		{"three/p99", []float64{3, 1, 2}, 99, 2.98},
		{"three/p100", []float64{3, 1, 2}, 100, 3},
		{"four/p0", []float64{4, 2, 1, 3}, 0, 1},
		{"four/p50", []float64{4, 2, 1, 3}, 50, 2.5},
		{"four/p99", []float64{4, 2, 1, 3}, 99, 3.97},
		{"four/p100", []float64{4, 2, 1, 3}, 100, 4},
		{"five/p0", []float64{5, 1, 3, 2, 4}, 0, 1},
		{"five/p50", []float64{5, 1, 3, 2, 4}, 50, 3},
		{"five/p99", []float64{5, 1, 3, 2, 4}, 99, 4.96},
		{"five/p100", []float64{5, 1, 3, 2, 4}, 100, 5},
		{"clamp-low", []float64{1, 2}, -5, 1},
		{"clamp-high", []float64{1, 2}, 120, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Percentile(tc.vals, tc.p)
			if diff := got - tc.want; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("Percentile(%v, %v) = %v, want %v", tc.vals, tc.p, got, tc.want)
			}
		})
	}
}

// TestSeriesSetRagged is the regression test for the truncation bug:
// when the first series is shorter than a later one, Table and CSV must
// still render every row of the longest series, padding the missing
// cells rather than dropping the tail.
func TestSeriesSetRagged(t *testing.T) {
	ss := NewSeriesSet()
	ss.Get("node1").Add(0, 10) // joined, then stopped sampling
	for i := 0; i < 3; i++ {
		ss.Get("node2").Add(time.Duration(i)*time.Second, float64(20+i))
	}
	tab := ss.Table()
	lines := strings.Split(strings.TrimSpace(tab), "\n")
	if len(lines) != 4 {
		t.Fatalf("table rows = %d, want header + 3 (longest series), got:\n%s", len(lines), tab)
	}
	if !strings.Contains(tab, "22.00") {
		t.Fatalf("table lost the longest series' tail:\n%s", tab)
	}
	if !strings.Contains(lines[2], "-") || !strings.Contains(lines[3], "-") {
		t.Fatalf("short series not padded with '-':\n%s", tab)
	}
	csv := ss.CSV()
	want := "t_s,node1,node2\n0.000,10.0000,20.0000\n1.000,,21.0000\n2.000,,22.0000\n"
	if csv != want {
		t.Fatalf("csv = %q, want %q", csv, want)
	}
}

func TestSeriesSetCSV(t *testing.T) {
	ss := NewSeriesSet()
	ss.Get("node1").Add(5*time.Second, 80.5)
	ss.Get("node2").Add(5*time.Second, 70.25)
	csv := ss.CSV()
	want := "t_s,node1,node2\n5.000,80.5000,70.2500\n"
	if csv != want {
		t.Fatalf("csv = %q, want %q", csv, want)
	}
	if NewSeriesSet().CSV() != "t_s\n" {
		t.Fatal("empty csv header wrong")
	}
}
