package obs

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"dvemig/internal/simtime"
)

// chromeEvent is one entry of the Chrome trace_event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU),
// the subset Perfetto and chrome://tracing load: complete events ("X"),
// instant events ("i") and metadata ("M"). Timestamps are microseconds
// of *virtual* time.
type chromeEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat,omitempty"`
	Ph    string            `json:"ph"`
	Ts    float64           `json:"ts"`
	Dur   *float64          `json:"dur,omitempty"`
	Pid   int               `json:"pid"`
	Tid   int               `json:"tid"`
	ID    string            `json:"id,omitempty"` // flow-event binding id
	BP    string            `json:"bp,omitempty"` // flow binding point ("e" = enclosing slice)
	Scope string            `json:"s,omitempty"`
	Args  map[string]string `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func usOf(t simtime.Time) float64 { return float64(t) / 1e3 }

func attrMap(attrs []Attr) map[string]string {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]string, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Val
	}
	return m
}

// spanArgs builds the export args for a span: user attributes plus the
// causal coordinates (span_id/trace_id/parent_id) that `report
// tracecheck -connected` and `report obsdiff` consume to reconstruct
// the span tree.
func spanArgs(s *Span) map[string]string {
	m := make(map[string]string, len(s.Attrs)+3)
	for _, a := range s.Attrs {
		m[a.Key] = a.Val
	}
	m["span_id"] = itoa(int64(s.ID))
	m["trace_id"] = itoa(int64(s.TraceID))
	if s.Parent != nil {
		m["parent_id"] = itoa(int64(s.Parent.ID))
	}
	return m
}

// WriteChromeTrace writes the captures as one Chrome trace_event JSON
// document. Each capture becomes one "process" (pid = 1-based capture
// index, named by the capture label); each track within a capture
// becomes one "thread" (tid in first-use order). Spans emit complete
// ("X") events — Perfetto nests them by containment — and instants emit
// thread-scoped "i" events.
//
// The output is deterministic: encoding/json sorts map keys, events are
// emitted in recorded order, and all values derive from virtual time.
func WriteChromeTrace(w io.Writer, caps ...*Capture) error {
	doc := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	for i, c := range caps {
		if c == nil || c.Trace == nil {
			continue
		}
		pid := i + 1
		c.Trace.closeOpen()
		label := c.Label
		if label == "" {
			label = fmt.Sprintf("run-%d", pid)
		}
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]string{"name": label},
		})
		tids := map[string]int{}
		tidOf := func(track string) int {
			id, ok := tids[track]
			if !ok {
				id = len(tids) + 1
				tids[track] = id
				doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
					Name: "thread_name", Ph: "M", Pid: pid, Tid: id,
					Args: map[string]string{"name": track},
				})
			}
			return id
		}
		for _, s := range c.Trace.Spans {
			dur := usOf(s.End) - usOf(s.Start)
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: s.Name, Cat: "span", Ph: "X",
				Ts: usOf(s.Start), Dur: &dur,
				Pid: pid, Tid: tidOf(s.Track),
				Args: spanArgs(s),
			})
			// Cross-track parent links render as Perfetto flow arrows:
			// a flow start ("s") inside the parent slice pointing at a
			// flow finish ("f") bound to the child slice. Same-track
			// links nest by containment and need no arrow.
			if p := s.Parent; p != nil && p.Track != s.Track {
				fid := fmt.Sprintf("p%d.s%d", pid, s.ID)
				at := s.Start
				if at > p.End {
					at = p.End
				}
				if at < p.Start {
					at = p.Start
				}
				doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
					Name: "causal", Cat: "flow", Ph: "s",
					Ts: usOf(at), Pid: pid, Tid: tidOf(p.Track), ID: fid,
				})
				doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
					Name: "causal", Cat: "flow", Ph: "f", BP: "e",
					Ts: usOf(s.Start), Pid: pid, Tid: tidOf(s.Track), ID: fid,
				})
			}
		}
		for _, in := range c.Trace.Instants {
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: in.Name, Cat: "instant", Ph: "i",
				Ts: usOf(in.At), Pid: pid, Tid: tidOf(in.Track), Scope: "t",
				Args: attrMap(in.Attrs),
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// ValidateChromeTrace is the minimal schema check the CI smoke job
// runs: the document parses, has a traceEvents array, every event
// carries name/ph/pid and a numeric ts, and at least one complete ("X")
// span with a duration is present.
func ValidateChromeTrace(data []byte) error {
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("obs: trace is not valid JSON: %w", err)
	}
	if doc.TraceEvents == nil {
		return fmt.Errorf("obs: trace has no traceEvents array")
	}
	spans := 0
	for i, ev := range doc.TraceEvents {
		for _, key := range []string{"name", "ph", "ts", "pid"} {
			if _, ok := ev[key]; !ok {
				return fmt.Errorf("obs: traceEvents[%d] missing %q", i, key)
			}
		}
		if _, ok := ev["ts"].(float64); !ok {
			return fmt.Errorf("obs: traceEvents[%d] ts is not numeric", i)
		}
		if ev["ph"] == "X" {
			if _, ok := ev["dur"].(float64); !ok {
				return fmt.Errorf("obs: traceEvents[%d] complete event without dur", i)
			}
			spans++
		}
	}
	if spans == 0 {
		return fmt.Errorf("obs: trace contains no complete (X) spans")
	}
	return nil
}

// WriteMetricsText writes each capture's snapshot (labelled) as plain
// text — the -metrics-out format.
func WriteMetricsText(w io.Writer, caps ...*Capture) error {
	bw := bufio.NewWriter(w)
	for _, c := range caps {
		if c == nil || c.Snap == nil {
			continue
		}
		if c.Label != "" {
			fmt.Fprintf(bw, "=== %s ===\n", c.Label)
		}
		bw.WriteString(c.Snap.Text())
	}
	return bw.Flush()
}

// SeriesDocKind is the top-level marker of a -series-out JSON artifact;
// `report tracecheck` and `report obsdiff` detect series files by it.
const SeriesDocKind = "dvemig-series"

// seriesDoc is the -series-out JSON schema: one document per export,
// one entry per capture, one series per sampled metric. Field order is
// fixed by the struct, values derive from virtual time — byte-identical
// across runs and worker counts.
type seriesDoc struct {
	Kind     string          `json:"kind"`
	Captures []seriesCapture `json:"captures"`
}

type seriesCapture struct {
	Label      string        `json:"label"`
	PeriodNs   int64         `json:"period_ns"`
	MaxSamples int           `json:"max_samples"`
	Series     []seriesEntry `json:"series"`
	SLO        []sloEntry    `json:"slo,omitempty"`
}

type seriesEntry struct {
	Name  string    `json:"name"`
	Kind  string    `json:"kind"`
	Total uint64    `json:"total"`
	T     []int64   `json:"t_ns"`
	V     []float64 `json:"v"`
}

type sloEntry struct {
	Name     string      `json:"name"`
	Target   float64     `json:"target"`
	Overall  float64     `json:"overall"`
	Met      bool        `json:"met"`
	Breaches int         `json:"breach_windows"`
	First    int         `json:"first_breach"`
	Burns    []burnEntry `json:"burns,omitempty"`
}

type burnEntry struct {
	Len    int     `json:"len"`
	Peak   float64 `json:"peak"`
	PeakAt int     `json:"peak_at"`
}

func seriesDocOf(caps ...*Capture) seriesDoc {
	doc := seriesDoc{Kind: SeriesDocKind, Captures: []seriesCapture{}}
	for _, c := range caps {
		if c == nil || c.Series == nil {
			continue
		}
		sc := seriesCapture{
			Label:      c.Label,
			PeriodNs:   int64(c.SamplePeriod),
			MaxSamples: c.Series.Max,
			Series:     []seriesEntry{},
		}
		for _, name := range c.Series.Names() {
			ts := c.Series.Series(name)
			t, v := ts.Points()
			e := seriesEntry{Name: name, Kind: string(ts.Kind), Total: ts.Total(),
				T: make([]int64, len(t)), V: v}
			for i, at := range t {
				e.T[i] = int64(at)
			}
			sc.Series = append(sc.Series, e)
		}
		for _, r := range c.SLO {
			se := sloEntry{Name: r.Name, Target: r.Objective.Max, Overall: r.Overall,
				Met: r.Met, Breaches: r.BreachWindows, First: r.FirstBreach}
			for _, b := range r.Burns {
				se.Burns = append(se.Burns, burnEntry{Len: b.Len, Peak: b.Peak, PeakAt: b.PeakAt})
			}
			sc.SLO = append(sc.SLO, se)
		}
		doc.Captures = append(doc.Captures, sc)
	}
	return doc
}

// WriteSeriesJSON writes the captures' sampled time series (and SLO
// verdicts, when present) as one JSON document — the -series-out
// format. Captures without a sampler are skipped.
func WriteSeriesJSON(w io.Writer, caps ...*Capture) error {
	enc := json.NewEncoder(w)
	return enc.Encode(seriesDocOf(caps...))
}

// WriteSeriesCSV writes the same data in long form — one row per
// sample point: capture,series,kind,t_ns,value.
func WriteSeriesCSV(w io.Writer, caps ...*Capture) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "capture,series,kind,t_ns,value")
	for _, c := range caps {
		if c == nil || c.Series == nil {
			continue
		}
		for _, name := range c.Series.Names() {
			ts := c.Series.Series(name)
			t, v := ts.Points()
			for i := range t {
				fmt.Fprintf(bw, "%s,%s,%s,%d,%s\n", c.Label, name, ts.Kind,
					int64(t[i]), strconv.FormatFloat(v[i], 'g', -1, 64))
			}
		}
	}
	return bw.Flush()
}

// Artifacts is the -trace-out / -metrics-out / -series-out / -sample
// plumbing shared by the commands: NewArtifacts declares the flags, Write
// writes the captures' Chrome trace, metric snapshots and sampled
// series at whichever paths were given (the series as CSV when its path
// ends in .csv, JSON otherwise) and names each file written on log.
type Artifacts struct {
	tracePath, metricsPath, seriesPath string
	// Sample is the -sample sim-time cadence of the sampled series;
	// ≤ 0 turns sampling off.
	Sample time.Duration
}

// NewArtifacts declares -trace-out and -metrics-out on fs, and
// -series-out and -sample too when the command samples its runs, and
// returns the Artifacts they fill in.
func NewArtifacts(fs *flag.FlagSet, sampled bool) *Artifacts {
	a := &Artifacts{}
	fs.StringVar(&a.tracePath, "trace-out", "", "observe the run and write a Chrome trace_event JSON (Perfetto-loadable) of it to this file")
	fs.StringVar(&a.metricsPath, "metrics-out", "", "observe the run and write its merged metric snapshots to this file")
	if sampled {
		fs.StringVar(&a.seriesPath, "series-out", "", "observe the run and write its sampled time series to this file (.csv for CSV, else JSON)")
		fs.DurationVar(&a.Sample, "sample", time.Second, "sim-time sampling cadence for the time series, window audits and SLOs (0 disables)")
	}
	return a
}

// Observe reports whether any artifact was asked for: a run must be
// observed to have something to write.
func (a *Artifacts) Observe() bool {
	return a.tracePath != "" || a.metricsPath != "" || a.seriesPath != ""
}

// Write writes the artifacts whose paths were given.
func (a *Artifacts) Write(log io.Writer, caps ...*Capture) error {
	series := WriteSeriesJSON
	if strings.HasSuffix(a.seriesPath, ".csv") {
		series = WriteSeriesCSV
	}
	for _, out := range []struct {
		path, what string
		write      func(io.Writer, ...*Capture) error
	}{
		{a.tracePath, "trace", WriteChromeTrace},
		{a.metricsPath, "metrics", WriteMetricsText},
		{a.seriesPath, "series", series},
	} {
		if out.path == "" {
			continue
		}
		f, err := os.Create(out.path)
		if err == nil {
			err = out.write(f, caps...)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return fmt.Errorf("writing %s: %w", out.what, err)
		}
		fmt.Fprintf(log, "wrote %s\n", out.path)
	}
	return nil
}
