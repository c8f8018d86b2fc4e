package obs

import (
	"bytes"
	"strings"
	"testing"

	"dvemig/internal/simtime"
)

func TestNilPlaneIsNoOp(t *testing.T) {
	var o *Obs
	tr := o.T()
	m := o.M()
	if tr != nil || m != nil {
		t.Fatalf("nil Obs must hand out nil tracer/registry")
	}
	s := tr.Start("node1", "migration")
	s.SetAttr("k", "v")
	s.SetInt("n", 7)
	c := s.Child("precopy")
	c.Close()
	s.Close()
	tr.Instant("node1", "tick")
	tr.InstantAt(5, "node1", "tick")
	m.Counter("x").Inc()
	m.Counter("x").Add(3)
	m.Gauge("g").Set(1)
	m.Gauge("g").Add(1)
	m.Histogram("h", DurationBucketsUs).Observe(12)
	if m.Counter("x").Value() != 0 || m.Gauge("g").Value() != 0 || m.Histogram("h", nil).Count() != 0 {
		t.Fatalf("nil handles must read zero")
	}
	if o.Capture("x") != nil {
		t.Fatalf("nil Obs.Capture must be nil")
	}
}

func TestSpanHierarchyAndDurations(t *testing.T) {
	sched := simtime.NewScheduler()
	o := New(sched)
	root := o.T().Start("node1", "migration")
	sched.After(10e6, "step", func() {})
	sched.Run()
	child := root.Child("precopy")
	if child.Parent != root {
		t.Fatalf("child parent not set")
	}
	sched.After(5e6, "step", func() {})
	sched.Run()
	child.Close()
	if child.Open() {
		t.Fatalf("ended span still open")
	}
	if got := child.Duration(); got != 5e6 {
		t.Fatalf("child duration = %v, want 5e6", got)
	}
	// root still open: duration runs to high-water mark
	if got := root.Duration(); got != 15e6 {
		t.Fatalf("open root duration = %v, want 15e6", got)
	}
	sched.After(1e6, "step", func() {})
	sched.Run()
	root.Close()
	if got := root.Duration(); got != 16e6 {
		t.Fatalf("root duration = %v, want 16e6", got)
	}
	// closing an already closed span is a no-op
	if root.Close(); root.Duration() != 16e6 {
		t.Fatalf("double Close changed duration")
	}
	if root.CloseAt(99e6); root.End != 16e6 {
		t.Fatalf("CloseAt on closed span changed End to %v", root.End)
	}
}

func TestCloseOpenClampsToHighWater(t *testing.T) {
	sched := simtime.NewScheduler()
	o := New(sched)
	s := o.T().Start("n", "dangling")
	o.T().InstantAt(42e6, "n", "late")
	o.T().closeOpen()
	if s.Open() || s.End != 42e6 {
		t.Fatalf("open span must close at high-water mark, got end=%v open=%v", s.End, s.Open())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{10, 100})
	for _, v := range []float64{5, 10, 11, 100, 1000} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	hp, ok := snap.Hist("lat")
	if !ok {
		t.Fatalf("histogram missing from snapshot")
	}
	want := []uint64{2, 2, 1} // ≤10: {5,10}; ≤100: {11,100}; +Inf: {1000}
	for i, w := range want {
		if hp.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, hp.Counts[i], w, hp.Counts)
		}
	}
	if hp.N != 5 || hp.Sum != 1126 {
		t.Fatalf("N=%d Sum=%v", hp.N, hp.Sum)
	}
	if got := hp.Mean(); got != 1126.0/5 {
		t.Fatalf("mean = %v", got)
	}
}

func TestSnapshotDiff(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(3)
	r.Histogram("h", []float64{10}).Observe(5)
	prev := r.Snapshot()
	r.Counter("c").Add(4)
	r.Gauge("g").Set(9)
	r.Histogram("h", nil).Observe(50)
	d := r.Snapshot().Diff(prev)
	if v, _ := d.Counter("c"); v != 4 {
		t.Fatalf("diff counter = %d, want 4", v)
	}
	hp, _ := d.Hist("h")
	if hp.N != 1 || hp.Sum != 50 || hp.Counts[0] != 0 || hp.Counts[1] != 1 {
		t.Fatalf("diff hist = %+v", hp)
	}
	if len(d.Gauges) != 1 || d.Gauges[0].Value != 9 {
		t.Fatalf("diff gauges = %+v", d.Gauges)
	}
}

func TestMergeSnapshots(t *testing.T) {
	a := NewRegistry()
	a.Counter("c").Add(1)
	a.Histogram("h", []float64{10}).Observe(5)
	b := NewRegistry()
	b.Counter("c").Add(2)
	b.Counter("only_b").Inc()
	b.Histogram("h", []float64{10}).Observe(50)
	m, err := MergeSnapshots(a.Snapshot(), nil, b.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Counter("c"); v != 3 {
		t.Fatalf("merged c = %d", v)
	}
	if v, _ := m.Counter("only_b"); v != 1 {
		t.Fatalf("merged only_b = %d", v)
	}
	hp, _ := m.Hist("h")
	if hp.N != 2 || hp.Sum != 55 || hp.Counts[0] != 1 || hp.Counts[1] != 1 {
		t.Fatalf("merged hist = %+v", hp)
	}
	// merge is independent of argument grouping when order is preserved
	ma, err := MergeSnapshots(a.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	m2, err := MergeSnapshots(ma, b.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if m.Text() != m2.Text() {
		t.Fatalf("merge not associative:\n%s\nvs\n%s", m.Text(), m2.Text())
	}
}

func TestMergeSnapshotsEdgeCases(t *testing.T) {
	// Empty input: a valid, empty snapshot — not nil, not an error.
	m, err := MergeSnapshots()
	if err != nil || m == nil || len(m.Counters) != 0 || len(m.Hists) != 0 {
		t.Fatalf("empty merge = %+v, %v", m, err)
	}
	// All-nil input behaves like empty input.
	if m, err = MergeSnapshots(nil, nil); err != nil || m == nil {
		t.Fatalf("all-nil merge = %+v, %v", m, err)
	}

	// Disjoint metric sets: union, nothing dropped.
	a := NewRegistry()
	a.Counter("alpha").Add(3)
	a.Histogram("ha", []float64{1, 2}).Observe(1.5)
	b := NewRegistry()
	b.Counter("beta").Add(4)
	b.Gauge("gb").Set(7)
	m, err = MergeSnapshots(a.Snapshot(), b.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := m.Counter("alpha"); !ok || v != 3 {
		t.Fatalf("alpha = %d/%v", v, ok)
	}
	if v, ok := m.Counter("beta"); !ok || v != 4 {
		t.Fatalf("beta = %d/%v", v, ok)
	}
	if hp, ok := m.Hist("ha"); !ok || hp.N != 1 {
		t.Fatalf("ha = %+v/%v", hp, ok)
	}
	if len(m.Gauges) != 1 || m.Gauges[0].Value != 7 {
		t.Fatalf("gauges = %+v", m.Gauges)
	}

	// Histogram bucket-boundary mismatch must be an error, not a silent
	// merge of incompatible counts.
	c := NewRegistry()
	c.Histogram("ha", []float64{1, 5}).Observe(1.5)
	if _, err = MergeSnapshots(a.Snapshot(), c.Snapshot()); err == nil {
		t.Fatal("bucket-boundary mismatch silently merged")
	}
	d := NewRegistry()
	d.Histogram("ha", []float64{1, 2, 3}).Observe(1.5)
	if _, err = MergeSnapshots(a.Snapshot(), d.Snapshot()); err == nil {
		t.Fatal("bucket-count mismatch silently merged")
	}
}

func TestChromeTraceExportValidatesAndIsDeterministic(t *testing.T) {
	build := func() *Capture {
		sched := simtime.NewScheduler()
		o := New(sched)
		root := o.T().Start("node1", "migration")
		root.SetInt("pid", 101)
		sched.After(2e6, "x", func() {})
		sched.Run()
		pre := root.Child("precopy")
		o.T().Instant("node2", "fault", Attr{"kind", "drop"})
		sched.After(3e6, "x", func() {})
		sched.Run()
		pre.Close()
		root.Close()
		o.M().Counter("c").Inc()
		return o.Capture("run")
	}
	var b1, b2 bytes.Buffer
	if err := WriteChromeTrace(&b1, build()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&b2, build()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("chrome trace not deterministic")
	}
	if err := ValidateChromeTrace(b1.Bytes()); err != nil {
		t.Fatalf("export fails own validation: %v", err)
	}
}

func TestValidateChromeTraceRejectsBadDocs(t *testing.T) {
	cases := map[string]string{
		"not json":      "{",
		"no array":      `{}`,
		"missing field": `{"traceEvents":[{"ph":"X","ts":1,"pid":1}]}`,
		"bad ts":        `{"traceEvents":[{"name":"a","ph":"X","ts":"x","pid":1}]}`,
		"x without dur": `{"traceEvents":[{"name":"a","ph":"X","ts":1,"pid":1}]}`,
		"no spans":      `{"traceEvents":[{"name":"a","ph":"i","ts":1,"pid":1}]}`,
	}
	for name, doc := range cases {
		if err := ValidateChromeTrace([]byte(doc)); err == nil {
			t.Errorf("%s: validation unexpectedly passed", name)
		}
	}
}

func TestWriteMetricsText(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(2)
	r.Counter("a").Add(1)
	r.Gauge("g").Set(0.5)
	r.Histogram("h", []float64{10}).Observe(3)
	c := &Capture{Label: "L", Snap: r.Snapshot()}
	var b bytes.Buffer
	if err := WriteMetricsText(&b, c, nil); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "=== L ===") {
		t.Fatalf("missing label:\n%s", out)
	}
	if strings.Index(out, "a ") > strings.Index(out, "b ") {
		t.Fatalf("counters not sorted:\n%s", out)
	}
	for _, want := range []string{"# counters", "# gauges", "# histograms", "n=1 sum=3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}
