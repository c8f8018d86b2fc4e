package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"dvemig/internal/simtime"
)

func TestTimeSeriesRingEviction(t *testing.T) {
	st := NewSeriesStore(4)
	ts := st.get("x", SeriesCounter)
	for i := 0; i < 10; i++ {
		ts.Append(simtime.Time(i), float64(i*i))
	}
	if ts.Len() != 4 {
		t.Fatalf("Len = %d, want 4", ts.Len())
	}
	if ts.Total() != 10 {
		t.Fatalf("Total = %d, want 10", ts.Total())
	}
	times, vals := ts.Points()
	wantT := []simtime.Time{6, 7, 8, 9}
	for i := range wantT {
		if times[i] != wantT[i] {
			t.Fatalf("Points times = %v, want %v", times, wantT)
		}
		if vals[i] != float64(wantT[i]*wantT[i]) {
			t.Fatalf("Points vals[%d] = %v, want %v", i, vals[i], wantT[i]*wantT[i])
		}
	}
}

func TestTimeSeriesPointsBeforeWrap(t *testing.T) {
	st := NewSeriesStore(8)
	ts := st.get("x", SeriesGauge)
	ts.Append(1, 10)
	ts.Append(2, 20)
	times, vals := ts.Points()
	if len(times) != 2 || times[0] != 1 || times[1] != 2 || vals[1] != 20 {
		t.Fatalf("Points = (%v, %v)", times, vals)
	}
}

func TestTimeSeriesNilNoOps(t *testing.T) {
	var ts *TimeSeries
	ts.Append(1, 2)
	if ts.Len() != 0 || ts.Total() != 0 {
		t.Fatal("nil series should be empty")
	}
	if tm, v := ts.Points(); tm != nil || v != nil {
		t.Fatal("nil Points should return nil slices")
	}
	var st *SeriesStore
	if st.Series("x") != nil || st.Names() != nil || st.Len() != 0 {
		t.Fatal("nil store should be empty")
	}
}

// TestSamplerAlignedWindows pins the determinism anchor: sample
// instants are whole multiples of the period no matter when Start was
// called, and each window's [From, To) range tiles the run.
func TestSamplerAlignedWindows(t *testing.T) {
	sched := simtime.NewScheduler()
	reg := NewRegistry()
	n := reg.Counter("n")
	var windows []SampleWindow

	sched.RunFor(150 * simtime.Duration(time.Millisecond)) // start off-grid
	s := NewSampler(sched, reg, 100*simtime.Duration(time.Millisecond), 0)
	s.OnSample(func(w SampleWindow) { windows = append(windows, w) })
	s.Harvest = func(r *Registry) { n.Add(1) }
	s.Start()
	sched.RunFor(350 * simtime.Duration(time.Millisecond)) // now = 500ms
	s.Stop()

	// Ticks at 200, 300, 400, 500ms — never at 150+100k.
	if len(windows) != 4 {
		t.Fatalf("got %d windows, want 4", len(windows))
	}
	ms := simtime.Duration(time.Millisecond)
	wantTo := []simtime.Time{200 * ms, 300 * ms, 400 * ms, 500 * ms}
	for i, w := range windows {
		if w.To != wantTo[i] {
			t.Fatalf("window %d To = %v, want %v", i, w.To, wantTo[i])
		}
		if w.Index != i {
			t.Fatalf("window %d Index = %d", i, w.Index)
		}
		if i > 0 && w.From != windows[i-1].To {
			t.Fatalf("window %d From = %v does not tile previous To %v", i, w.From, windows[i-1].To)
		}
	}
	// Harvest ran once per window with Add (deliberately non-idempotent
	// here) — the counter series must be cumulative and monotonic.
	times, vals := s.Store().Series("n").Points()
	if len(times) != 4 {
		t.Fatalf("series len = %d, want 4", len(times))
	}
	for i := range vals {
		if vals[i] != float64(i+1) {
			t.Fatalf("counter series = %v, want 1..4", vals)
		}
	}
	if s.Windows() != 4 {
		t.Fatalf("Windows = %d, want 4", s.Windows())
	}
}

func TestSamplerFlushClosesPartialWindow(t *testing.T) {
	sched := simtime.NewScheduler()
	reg := NewRegistry()
	s := NewSampler(sched, reg, simtime.Duration(time.Second), 0)
	var last SampleWindow
	s.OnSample(func(w SampleWindow) { last = w })
	s.Start()
	sched.RunFor(2500 * simtime.Duration(time.Millisecond))
	s.Stop()
	if s.Windows() != 2 {
		t.Fatalf("Windows = %d, want 2 before Flush", s.Windows())
	}
	s.Flush()
	if s.Windows() != 3 {
		t.Fatalf("Windows = %d, want 3 after Flush", s.Windows())
	}
	sec := simtime.Duration(time.Second)
	if last.From != 2*sec || last.To != 2500*simtime.Duration(time.Millisecond) {
		t.Fatalf("flush window = [%v, %v)", last.From, last.To)
	}
	s.Flush() // idempotent: clock has not advanced
	if s.Windows() != 3 {
		t.Fatalf("second Flush emitted a window")
	}
}

func TestSamplerHistSeries(t *testing.T) {
	sched := simtime.NewScheduler()
	reg := NewRegistry()
	h := reg.Histogram("lat", []float64{10, 100, 1000})
	s := NewSampler(sched, reg, simtime.Duration(time.Second), 0)
	s.Start()
	h.Observe(50)
	h.Observe(60)
	sched.RunFor(simtime.Duration(time.Second))
	h.Observe(500)
	sched.RunFor(simtime.Duration(time.Second))
	s.Stop()

	_, nVals := s.Store().Series("lat/n").Points()
	if len(nVals) != 2 || nVals[0] != 2 || nVals[1] != 3 {
		t.Fatalf("lat/n = %v, want [2 3] (cumulative)", nVals)
	}
	_, p99 := s.Store().Series("lat/p99").Points()
	if len(p99) != 2 {
		t.Fatalf("lat/p99 len = %d", len(p99))
	}
	// Window 1's delta holds only the 500 observation: with one sample
	// the closest-ranks estimate is its bucket's lower bound (100),
	// strictly above window 0's estimate from the (10, 100] bucket.
	if p99[1] <= p99[0] || p99[1] < 100 || p99[1] > 1000 {
		t.Fatalf("lat/p99 = %v, want window 1 in [100, 1000]", p99)
	}
}

func TestSeriesJSONRoundTrip(t *testing.T) {
	sched := simtime.NewScheduler()
	o := New(sched)
	c := o.Metrics.Counter("reqs")
	s := NewSampler(sched, o.Metrics, simtime.Duration(time.Second), 0)
	o.Sampler = s
	s.Start()
	c.Add(3)
	sched.RunFor(2 * simtime.Duration(time.Second))
	s.Stop()
	cap := o.Capture("cell0")
	if cap.Series == nil || cap.SamplePeriod != simtime.Duration(time.Second) {
		t.Fatalf("capture did not fold the sampler in: %+v", cap)
	}

	var buf bytes.Buffer
	if err := WriteSeriesJSON(&buf, cap); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if !LooksLikeSeriesJSON(data) {
		t.Fatal("exported series JSON not auto-detected")
	}
	if LooksLikeSeriesJSON([]byte(`{"traceEvents":[]}`)) {
		t.Fatal("trace JSON misdetected as series")
	}
	if err := ValidateSeriesJSON(data); err != nil {
		t.Fatalf("exported series JSON fails its own validator: %v", err)
	}

	var csv bytes.Buffer
	if err := WriteSeriesCSV(&csv, cap); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "capture,series,kind,t_ns,value\n") {
		t.Fatalf("csv header: %q", csv.String())
	}
	if !strings.Contains(csv.String(), "cell0,reqs,counter,") {
		t.Fatalf("csv missing reqs row:\n%s", csv.String())
	}
	if !LooksLikeSeriesCSV(csv.Bytes()) {
		t.Fatal("exported series CSV not auto-detected")
	}
	if LooksLikeSeriesCSV(data) {
		t.Fatal("series JSON misdetected as CSV")
	}
	if err := ValidateSeriesCSV(csv.Bytes()); err != nil {
		t.Fatalf("exported series CSV fails its own validator: %v", err)
	}
}

func TestValidateSeriesCSVRejects(t *testing.T) {
	const hdr = "capture,series,kind,t_ns,value\n"
	bad := []struct{ name, doc string }{
		{"missing header", "cell0,reqs,counter,1,1\n"},
		{"no rows", hdr},
		{"field count", hdr + "cell0,reqs,counter,1\n"},
		{"unknown kind", hdr + "cell0,reqs,woble,1,1\n"},
		{"bad timestamp", hdr + "cell0,reqs,counter,x,1\n"},
		{"bad value", hdr + "cell0,reqs,counter,1,x\n"},
		{"non-increasing time", hdr + "cell0,reqs,counter,2,1\ncell0,reqs,counter,2,2\n"},
		{"counter decrease", hdr + "cell0,reqs,counter,1,2\ncell0,reqs,counter,2,1\n"},
		{"negative counter", hdr + "cell0,reqs,counter,1,-1\n"},
		{"kind flip", hdr + "cell0,reqs,counter,1,1\ncell0,reqs,gauge,2,0.5\n"},
		{"empty names", hdr + ",reqs,counter,1,1\n"},
	}
	for _, tc := range bad {
		if err := ValidateSeriesCSV([]byte(tc.doc)); err == nil {
			t.Errorf("%s: CSV validator accepted invalid doc", tc.name)
		}
	}
	good := hdr +
		"cell0,reqs,counter,1,1\n" +
		"cell0,reqs,counter,2,3\n" +
		"cell0,load,gauge,1,0.5\n" +
		"cell0,load,gauge,2,0.25\n" + // gauges may decrease
		"cell1,reqs,counter,1,7\n" // same series name, different capture
	if err := ValidateSeriesCSV([]byte(good)); err != nil {
		t.Errorf("CSV validator rejected valid doc: %v", err)
	}
}

func TestValidateSeriesJSONRejects(t *testing.T) {
	bad := []struct{ name, doc string }{
		{"kind marker", `{"kind":"nope","captures":[]}`},
		{"no captures", `{"kind":"dvemig-series","captures":[]}`},
		{"zero period", `{"kind":"dvemig-series","captures":[{"label":"x","period_ns":0,"max_samples":4,"series":[{"name":"a","kind":"counter","total":1,"t_ns":[1],"v":[1]}]}]}`},
		{"ragged arrays", `{"kind":"dvemig-series","captures":[{"label":"x","period_ns":1,"max_samples":4,"series":[{"name":"a","kind":"counter","total":2,"t_ns":[1,2],"v":[1]}]}]}`},
		{"non-increasing time", `{"kind":"dvemig-series","captures":[{"label":"x","period_ns":1,"max_samples":4,"series":[{"name":"a","kind":"counter","total":2,"t_ns":[2,2],"v":[1,1]}]}]}`},
		{"counter decrease", `{"kind":"dvemig-series","captures":[{"label":"x","period_ns":1,"max_samples":4,"series":[{"name":"a","kind":"counter","total":2,"t_ns":[1,2],"v":[2,1]}]}]}`},
		{"unknown series kind", `{"kind":"dvemig-series","captures":[{"label":"x","period_ns":1,"max_samples":4,"series":[{"name":"a","kind":"woble","total":1,"t_ns":[1],"v":[1]}]}]}`},
	}
	for _, tc := range bad {
		if err := ValidateSeriesJSON([]byte(tc.doc)); err == nil {
			t.Errorf("%s: validator accepted invalid doc", tc.name)
		}
	}
}
