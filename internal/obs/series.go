package obs

import "dvemig/internal/simtime"

// This file is the streaming half of the observability plane: a
// sim-time-driven Sampler that periodically snapshots the registry into
// bounded ring-buffered time series, so a long soak exposes *when* a
// metric degraded instead of only its end-of-run aggregate.
//
// Determinism contract: sample instants are whole multiples of the
// period (Ticker.StartAligned), the sampler only reads simulation state
// — it schedules its own tick events but never sends packets, consumes
// randomness or mutates anything outside the registry — and snapshot
// iteration is name-sorted. Series artifacts are therefore
// byte-identical across runs and, per-cell, at every sweep worker
// count. The disabled path (nil *Sampler) is allocation-free: every
// method is a nil-receiver no-op.

// SeriesKind tags what a time series was sampled from; validators use
// it to apply per-kind invariants (counter series must be monotonic).
type SeriesKind string

const (
	SeriesCounter   SeriesKind = "counter"  // cumulative counter value
	SeriesGauge     SeriesKind = "gauge"    // instantaneous gauge value
	SeriesHistCount SeriesKind = "hist-n"   // cumulative observation count
	SeriesHistP99   SeriesKind = "hist-p99" // per-window p99 estimate (0 on empty windows)
)

// TimeSeries is one metric's bounded sample ring: the last max points,
// oldest evicted first. Appends are amortized O(1) with no steady-state
// allocation once the ring is full.
type TimeSeries struct {
	Name string
	Kind SeriesKind

	max   int
	times []simtime.Time
	vals  []float64
	n     uint64 // total points ever appended (retained + evicted)
}

// Append records one point. Timestamps must be strictly increasing;
// the sampler guarantees this by construction.
func (ts *TimeSeries) Append(at simtime.Time, v float64) {
	if ts == nil {
		return
	}
	if len(ts.times) < ts.max {
		ts.times = append(ts.times, at)
		ts.vals = append(ts.vals, v)
	} else {
		i := int(ts.n % uint64(ts.max))
		ts.times[i] = at
		ts.vals[i] = v
	}
	ts.n++
}

// Len reports how many points are currently retained.
func (ts *TimeSeries) Len() int {
	if ts == nil {
		return 0
	}
	return len(ts.times)
}

// Total reports how many points were ever appended (retained + evicted).
func (ts *TimeSeries) Total() uint64 {
	if ts == nil {
		return 0
	}
	return ts.n
}

// Points returns the retained window oldest-first, as parallel copies.
func (ts *TimeSeries) Points() ([]simtime.Time, []float64) {
	if ts == nil || len(ts.times) == 0 {
		return nil, nil
	}
	t := make([]simtime.Time, 0, len(ts.times))
	v := make([]float64, 0, len(ts.vals))
	if len(ts.times) < ts.max || ts.n == uint64(len(ts.times)) {
		t = append(t, ts.times...)
		v = append(v, ts.vals...)
		return t, v
	}
	head := int(ts.n % uint64(ts.max)) // oldest slot
	t = append(append(t, ts.times[head:]...), ts.times[:head]...)
	v = append(append(v, ts.vals[head:]...), ts.vals[:head]...)
	return t, v
}

// SeriesStore owns a run's time series, keyed by name in first-seen
// order. Because the sampler walks name-sorted snapshots and metric
// sets are state-driven, the order is deterministic.
type SeriesStore struct {
	// Max bounds each series' retained points.
	Max    int
	order  []string
	byName map[string]*TimeSeries
}

// NewSeriesStore creates an empty store whose series each retain up to
// maxSamples points.
func NewSeriesStore(maxSamples int) *SeriesStore {
	return &SeriesStore{Max: maxSamples, byName: make(map[string]*TimeSeries)}
}

// get returns (creating if needed) the named series.
func (st *SeriesStore) get(name string, kind SeriesKind) *TimeSeries {
	ts := st.byName[name]
	if ts == nil {
		ts = &TimeSeries{Name: name, Kind: kind, max: st.Max}
		st.byName[name] = ts
		st.order = append(st.order, name)
	}
	return ts
}

// Series returns the named series, nil when absent or on a nil store.
func (st *SeriesStore) Series(name string) *TimeSeries {
	if st == nil {
		return nil
	}
	return st.byName[name]
}

// Names lists the series names in first-seen order.
func (st *SeriesStore) Names() []string {
	if st == nil {
		return nil
	}
	return append([]string(nil), st.order...)
}

// Len reports the number of series.
func (st *SeriesStore) Len() int {
	if st == nil {
		return 0
	}
	return len(st.order)
}

// SampleWindow is what one sample boundary hands to OnSample hooks: the
// window's half-open sim-time range, its 0-based index, the cumulative
// registry snapshot at the boundary and the delta against the previous
// boundary.
type SampleWindow struct {
	Index    int
	From, To simtime.Time
	Cum      *Snapshot
	Delta    *Snapshot
}

// Sampler drives periodic sampling on the virtual clock: every period
// it harvests (optionally), snapshots the registry, appends each metric
// to its ring series and fires the OnSample hooks — the attachment
// point for incremental audits and the SLO engine. A nil *Sampler is
// the disabled plane: every method no-ops without allocating.
type Sampler struct {
	// Period is the sample cadence; ticks land on whole multiples of it.
	Period simtime.Duration
	// Harvest, when set, scrapes lower-layer totals into the registry
	// before each snapshot. It must use absolute (Store/Set) semantics so
	// re-harvesting every window is idempotent.
	Harvest func(*Registry)

	sched   *simtime.Scheduler
	reg     *Registry
	store   *SeriesStore
	ticker  *simtime.Ticker
	hooks   []func(SampleWindow)
	slo     *SLOEngine
	prev    *Snapshot
	prevAt  simtime.Time
	windows int
}

// sampleRing bounds each sampled series' ring.
const sampleRing = 512

// NewSampler creates a stopped sampler on the scheduler's clock. reg
// may be nil (audit-only sampling: hooks still fire with empty
// snapshots). Each series keeps its last sampleRing samples. The period
// must be positive.
func NewSampler(sched *simtime.Scheduler, reg *Registry, period simtime.Duration) *Sampler {
	if period <= 0 {
		panic("obs: sampler period must be positive")
	}
	s := &Sampler{Period: period, sched: sched, reg: reg, store: NewSeriesStore(sampleRing)}
	s.ticker = simtime.NewTicker(sched, period, "obs.sample", func() { s.emit(sched.Now()) })
	return s
}

// OnSample registers a hook fired at every sample boundary, in
// registration order. Hooks must not feed back into the simulation.
func (s *Sampler) OnSample(fn func(SampleWindow)) {
	if s == nil || fn == nil {
		return
	}
	s.hooks = append(s.hooks, fn)
}

// AttachSLO subscribes an SLO engine to every sample window; its
// results ride along in Capture.SLO.
func (s *Sampler) AttachSLO(e *SLOEngine) {
	if s == nil || e == nil {
		return
	}
	s.slo = e
	s.OnSample(e.Observe)
}

// Start arms the sampler. Ticks land on whole multiples of Period
// regardless of when Start is called — the determinism anchor that
// keeps sample instants independent of construction order.
func (s *Sampler) Start() {
	if s == nil {
		return
	}
	s.ticker.StartAligned()
}

// Stop disarms the tick; already-recorded series stay readable. Call
// Flush afterwards to close the final partial window.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.ticker.Stop()
}

// Flush emits one final partial window covering [last boundary, now),
// so the tail of a run — teardown and drain included — is sampled and
// audited like every full window. No-op when the clock has not
// advanced past the last boundary.
func (s *Sampler) Flush() {
	if s == nil {
		return
	}
	if now := s.sched.Now(); now > s.prevAt {
		s.emit(now)
	}
}

// Store returns the accumulated series (nil when disabled).
func (s *Sampler) Store() *SeriesStore {
	if s == nil {
		return nil
	}
	return s.store
}

// Windows reports how many sample windows have been emitted.
func (s *Sampler) Windows() int {
	if s == nil {
		return 0
	}
	return s.windows
}

// emit closes the window ending at to: harvest, snapshot, append every
// metric to its series, then fire the hooks.
func (s *Sampler) emit(to simtime.Time) {
	if s.Harvest != nil {
		s.Harvest(s.reg)
	}
	cum := s.reg.Snapshot()
	delta := cum.Diff(s.prev)
	for _, c := range cum.Counters {
		s.store.get(c.Name, SeriesCounter).Append(to, float64(c.Value))
	}
	for _, g := range cum.Gauges {
		s.store.get(g.Name, SeriesGauge).Append(to, g.Value)
	}
	for _, h := range cum.Hists {
		s.store.get(h.Name+"/n", SeriesHistCount).Append(to, float64(h.N))
	}
	for _, h := range delta.Hists {
		s.store.get(h.Name+"/p99", SeriesHistP99).Append(to, h.Percentile(99))
	}
	w := SampleWindow{Index: s.windows, From: s.prevAt, To: to, Cum: cum, Delta: delta}
	s.windows++
	s.prev, s.prevAt = cum, to
	for _, fn := range s.hooks {
		fn(w)
	}
}
