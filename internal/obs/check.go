package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// CheckConnected verifies that a Chrome trace export forms connected
// causal trees: every span carries span_id/trace_id coordinates, every
// parent_id resolves to a span in the same process, every ancestry walk
// terminates at the span whose ID equals the trace ID (the trace root),
// and cross-track links — the spans a remote node parents into another
// node's trace (inbound, reserve, election) — are actually linked
// rather than rooting orphan traces. Flow events must come in matched
// start/finish pairs. At least one trace must span two or more tracks
// and contain both a "migration" and an "inbound" span, proving the
// trace context survived the node boundary end to end.
func CheckConnected(data []byte) error {
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("obs: trace is not valid JSON: %w", err)
	}
	if doc.TraceEvents == nil {
		return fmt.Errorf("obs: trace has no traceEvents array")
	}

	type spanRec struct {
		index  int
		name   string
		pid    int
		tid    int
		id     uint64
		trace  uint64
		parent uint64 // 0 = root
		hasPar bool
	}
	str := func(ev map[string]any, key string) string {
		s, _ := ev[key].(string)
		return s
	}
	num := func(ev map[string]any, key string) int {
		f, _ := ev[key].(float64)
		return int(f)
	}
	argU64 := func(ev map[string]any, key string) (uint64, bool) {
		args, _ := ev["args"].(map[string]any)
		s, _ := args[key].(string)
		if s == "" {
			return 0, false
		}
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, false
		}
		return v, true
	}

	spans := map[[2]uint64]*spanRec{} // (pid, span_id) -> span
	var all []*spanRec
	flows := map[string][2]int{} // flow id -> {starts, finishes}
	for i, ev := range doc.TraceEvents {
		switch str(ev, "ph") {
		case "X":
			if str(ev, "cat") != "span" {
				continue
			}
			r := &spanRec{index: i, name: str(ev, "name"),
				pid: num(ev, "pid"), tid: num(ev, "tid")}
			var ok bool
			if r.id, ok = argU64(ev, "span_id"); !ok {
				return fmt.Errorf("obs: traceEvents[%d] span %q has no span_id", i, r.name)
			}
			if r.trace, ok = argU64(ev, "trace_id"); !ok {
				return fmt.Errorf("obs: traceEvents[%d] span %q has no trace_id", i, r.name)
			}
			r.parent, r.hasPar = argU64(ev, "parent_id")
			key := [2]uint64{uint64(r.pid), r.id}
			if prev, dup := spans[key]; dup {
				return fmt.Errorf("obs: traceEvents[%d] span %q reuses span_id %d of span %q",
					i, r.name, r.id, prev.name)
			}
			spans[key] = r
			all = append(all, r)
		case "s", "f":
			id := str(ev, "id")
			c := flows[id]
			if str(ev, "ph") == "s" {
				c[0]++
			} else {
				c[1]++
			}
			flows[id] = c
		}
	}
	if len(all) == 0 {
		return fmt.Errorf("obs: trace contains no spans")
	}
	for id, c := range flows {
		if c[0] != c[1] {
			return fmt.Errorf("obs: flow %q has %d starts but %d finishes", id, c[0], c[1])
		}
	}

	// Every ancestry must terminate at the span whose ID is the trace ID.
	tracksOfTrace := map[[2]uint64]map[int]bool{}   // (pid, trace) -> tids
	namesOfTrace := map[[2]uint64]map[string]bool{} // (pid, trace) -> span names
	for _, r := range all {
		cur := r
		for steps := 0; ; steps++ {
			if steps > 10000 {
				return fmt.Errorf("obs: span %q (id %d) ancestry does not terminate (cycle?)", r.name, r.id)
			}
			if !cur.hasPar {
				if cur.id != cur.trace {
					return fmt.Errorf("obs: span %q (id %d, trace %d) is an orphan root: no parent_id but its id is not the trace id — the trace context was dropped on a node boundary",
						cur.name, cur.id, cur.trace)
				}
				break
			}
			p, ok := spans[[2]uint64{uint64(cur.pid), cur.parent}]
			if !ok {
				return fmt.Errorf("obs: span %q (id %d) names parent %d which is not in the export",
					cur.name, cur.id, cur.parent)
			}
			if p.trace != cur.trace {
				return fmt.Errorf("obs: span %q (id %d, trace %d) has parent %q in a different trace %d",
					cur.name, cur.id, cur.trace, p.name, p.trace)
			}
			cur = p
		}
		tk := [2]uint64{uint64(r.pid), r.trace}
		if tracksOfTrace[tk] == nil {
			tracksOfTrace[tk] = map[int]bool{}
			namesOfTrace[tk] = map[string]bool{}
		}
		tracksOfTrace[tk][r.tid] = true
		namesOfTrace[tk][r.name] = true
	}

	// Migration-related spans that must never root their own traces: the
	// destination and conductor spans that only exist as linked children.
	for _, r := range all {
		if (r.name == "inbound" || r.name == "reserve") && !r.hasPar {
			return fmt.Errorf("obs: %s span (id %d) is unlinked — the migration trace context did not cross the node boundary", r.name, r.id)
		}
	}

	// At least one trace must prove end-to-end connectivity: a migration
	// root and an inbound restore on different tracks in the same tree.
	for tk, names := range namesOfTrace {
		if names["migration"] && names["inbound"] && len(tracksOfTrace[tk]) >= 2 {
			return nil
		}
	}
	return fmt.Errorf("obs: no trace links a source migration span to a destination inbound span across tracks — the export contains no connected end-to-end migration")
}

// LooksLikeSeriesJSON reports whether data is a -series-out artifact
// (top-level kind marker), so `report tracecheck` can route it without a
// flag.
func LooksLikeSeriesJSON(data []byte) bool {
	var probe struct {
		Kind string `json:"kind"`
	}
	return json.Unmarshal(data, &probe) == nil && probe.Kind == SeriesDocKind
}

// ValidateSeriesJSON validates a -series-out artifact: the kind marker,
// at least one capture with a positive period, and per series — a
// non-empty name, a known kind, parallel t_ns/v arrays within the
// retention cap, strictly increasing timestamps, a total of at least
// the retained length, and (for counter-backed kinds) non-decreasing
// values, since a monotonic total sampled over time can never go down.
func ValidateSeriesJSON(data []byte) error {
	var doc seriesDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("obs: series file is not valid JSON: %w", err)
	}
	if doc.Kind != SeriesDocKind {
		return fmt.Errorf("obs: series file kind %q, want %q", doc.Kind, SeriesDocKind)
	}
	if len(doc.Captures) == 0 {
		return fmt.Errorf("obs: series file has no captures")
	}
	kinds := map[string]bool{
		string(SeriesCounter): true, string(SeriesGauge): true,
		string(SeriesHistCount): true, string(SeriesHistP99): true,
	}
	total := 0
	for ci, c := range doc.Captures {
		if c.PeriodNs <= 0 {
			return fmt.Errorf("obs: capture[%d] %q has non-positive period_ns %d", ci, c.Label, c.PeriodNs)
		}
		for si, s := range c.Series {
			where := fmt.Sprintf("capture[%d] %q series[%d] %q", ci, c.Label, si, s.Name)
			if s.Name == "" {
				return fmt.Errorf("obs: capture[%d] %q series[%d] has no name", ci, c.Label, si)
			}
			if !kinds[s.Kind] {
				return fmt.Errorf("obs: %s has unknown kind %q", where, s.Kind)
			}
			if len(s.T) != len(s.V) {
				return fmt.Errorf("obs: %s has %d timestamps but %d values", where, len(s.T), len(s.V))
			}
			if c.MaxSamples > 0 && len(s.T) > c.MaxSamples {
				return fmt.Errorf("obs: %s retains %d samples, cap is %d", where, len(s.T), c.MaxSamples)
			}
			if s.Total < uint64(len(s.T)) {
				return fmt.Errorf("obs: %s total %d below retained length %d", where, s.Total, len(s.T))
			}
			monotonic := s.Kind == string(SeriesCounter) || s.Kind == string(SeriesHistCount)
			for i := range s.T {
				if i > 0 && s.T[i] <= s.T[i-1] {
					return fmt.Errorf("obs: %s timestamps not strictly increasing at index %d", where, i)
				}
				if monotonic {
					if s.V[i] < 0 {
						return fmt.Errorf("obs: %s counter value negative at index %d", where, i)
					}
					if i > 0 && s.V[i] < s.V[i-1] {
						return fmt.Errorf("obs: %s counter series decreases at index %d (%g → %g)",
							where, i, s.V[i-1], s.V[i])
					}
				}
			}
			total++
		}
	}
	if total == 0 {
		return fmt.Errorf("obs: series file contains no series")
	}
	return nil
}

// seriesCSVHeader is the first line WriteSeriesCSV emits; `report
// tracecheck` uses it to auto-detect CSV series artifacts.
const seriesCSVHeader = "capture,series,kind,t_ns,value"

// LooksLikeSeriesCSV reports whether data starts with the series CSV
// header line, so `report tracecheck` can route .csv series artifacts
// without a flag.
func LooksLikeSeriesCSV(data []byte) bool {
	s := string(data)
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	return strings.TrimRight(s, "\r") == seriesCSVHeader
}

// ValidateSeriesCSV validates a .csv series artifact under the same
// invariants as the JSON form: the exact header, five well-formed
// fields per row, known series kinds, and per (capture, series) group —
// a consistent kind, strictly increasing timestamps, and non-negative
// non-decreasing values for counter-backed kinds. Rows of one group
// must be contiguous (WriteSeriesCSV emits them that way), so an
// interleaved or shuffled file fails the timestamp check.
func ValidateSeriesCSV(data []byte) error {
	lines := strings.Split(string(data), "\n")
	if len(lines) == 0 || strings.TrimRight(lines[0], "\r") != seriesCSVHeader {
		return fmt.Errorf("obs: series CSV missing header %q", seriesCSVHeader)
	}
	kinds := map[string]bool{
		string(SeriesCounter): true, string(SeriesGauge): true,
		string(SeriesHistCount): true, string(SeriesHistP99): true,
	}
	type group struct {
		kind  string
		lastT int64
		lastV float64
		rows  int
	}
	groups := map[[2]string]*group{}
	rows := 0
	for ln, line := range lines[1:] {
		lineNo := ln + 2
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		f := strings.Split(line, ",")
		if len(f) != 5 {
			return fmt.Errorf("obs: line %d: %d fields, want 5 (%s)", lineNo, len(f), seriesCSVHeader)
		}
		capture, series, kind := f[0], f[1], f[2]
		if capture == "" || series == "" {
			return fmt.Errorf("obs: line %d: empty capture or series name", lineNo)
		}
		if !kinds[kind] {
			return fmt.Errorf("obs: line %d: series %q has unknown kind %q", lineNo, series, kind)
		}
		t, err := strconv.ParseInt(f[3], 10, 64)
		if err != nil {
			return fmt.Errorf("obs: line %d: t_ns %q is not an integer", lineNo, f[3])
		}
		v, err := strconv.ParseFloat(f[4], 64)
		if err != nil {
			return fmt.Errorf("obs: line %d: value %q is not numeric", lineNo, f[4])
		}
		key := [2]string{capture, series}
		g := groups[key]
		if g == nil {
			g = &group{kind: kind}
			groups[key] = g
		}
		where := fmt.Sprintf("capture %q series %q", capture, series)
		if g.kind != kind {
			return fmt.Errorf("obs: line %d: %s changes kind %q → %q", lineNo, where, g.kind, kind)
		}
		if g.rows > 0 && t <= g.lastT {
			return fmt.Errorf("obs: line %d: %s timestamps not strictly increasing (%d after %d)",
				lineNo, where, t, g.lastT)
		}
		if kind == string(SeriesCounter) || kind == string(SeriesHistCount) {
			if v < 0 {
				return fmt.Errorf("obs: line %d: %s counter value negative", lineNo, where)
			}
			if g.rows > 0 && v < g.lastV {
				return fmt.Errorf("obs: line %d: %s counter series decreases (%g → %g)",
					lineNo, where, g.lastV, v)
			}
		}
		g.lastT, g.lastV = t, v
		g.rows++
		rows++
	}
	if rows == 0 {
		return fmt.Errorf("obs: series CSV contains no sample rows")
	}
	return nil
}

// ValidateMetricsText validates a -metrics-out artifact: section
// structure (`=== label ===` capture markers, `# counters` / `# gauges`
// / `# histograms` headers), line shapes per section, counter values
// that parse as non-negative integers (a monotonic counter can never be
// negative or fractional), histogram bucket sums that equal the
// observation count, and strictly increasing bucket bounds.
func ValidateMetricsText(data []byte) error {
	const (
		secNone = iota
		secCounters
		secGauges
		secHists
	)
	sec := secNone
	lines := strings.Split(string(data), "\n")
	sawAny := false
	for ln, line := range lines {
		lineNo := ln + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "=== ") && strings.HasSuffix(line, " ===") {
			sec = secNone // new capture section; headers must reappear
			continue
		}
		if strings.HasPrefix(line, "# ") {
			switch {
			case line == "# counters":
				sec = secCounters
			case line == "# gauges":
				sec = secGauges
			case strings.HasPrefix(line, "# histograms"):
				sec = secHists
			default:
				return fmt.Errorf("obs: line %d: unknown section header %q", lineNo, line)
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return fmt.Errorf("obs: line %d: malformed metric line %q", lineNo, line)
		}
		name := fields[0]
		switch sec {
		case secNone:
			return fmt.Errorf("obs: line %d: metric %q outside any section", lineNo, name)
		case secCounters:
			if len(fields) != 2 {
				return fmt.Errorf("obs: line %d: counter %q has %d fields, want 2", lineNo, name, len(fields))
			}
			if _, err := strconv.ParseUint(fields[1], 10, 64); err != nil {
				return fmt.Errorf("obs: line %d: counter %q value %q is not a non-negative integer (counters are monotonic)", lineNo, name, fields[1])
			}
		case secGauges:
			if len(fields) != 2 {
				return fmt.Errorf("obs: line %d: gauge %q has %d fields, want 2", lineNo, name, len(fields))
			}
			if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
				return fmt.Errorf("obs: line %d: gauge %q value %q is not numeric", lineNo, name, fields[1])
			}
		case secHists:
			if err := validateHistLine(fields[1:]); err != nil {
				return fmt.Errorf("obs: line %d: histogram %q: %w", lineNo, name, err)
			}
		}
		sawAny = true
	}
	if !sawAny {
		return fmt.Errorf("obs: metrics file contains no metric lines")
	}
	return nil
}

// validateHistLine checks one histogram line's fields past the name:
// n=, sum=, mean= then zero or more leBOUND= buckets and an optional
// inf= bucket. The bucket counts must sum to n and the bounds must be
// strictly increasing.
func validateHistLine(fields []string) error {
	if len(fields) < 3 {
		return fmt.Errorf("want at least n=/sum=/mean= fields, got %d", len(fields))
	}
	kv := func(f, key string) (string, error) {
		if !strings.HasPrefix(f, key+"=") {
			return "", fmt.Errorf("field %q: want %s=...", f, key)
		}
		return f[len(key)+1:], nil
	}
	nStr, err := kv(fields[0], "n")
	if err != nil {
		return err
	}
	n, err := strconv.ParseUint(nStr, 10, 64)
	if err != nil {
		return fmt.Errorf("n=%q is not a non-negative integer", nStr)
	}
	sumStr, err := kv(fields[1], "sum")
	if err != nil {
		return err
	}
	sum, err := strconv.ParseFloat(sumStr, 64)
	if err != nil {
		return fmt.Errorf("sum=%q is not numeric", sumStr)
	}
	meanStr, err := kv(fields[2], "mean")
	if err != nil {
		return err
	}
	mean, err := strconv.ParseFloat(meanStr, 64)
	if err != nil {
		return fmt.Errorf("mean=%q is not numeric", meanStr)
	}
	if n > 0 {
		want := sum / float64(n)
		tol := math.Max(math.Abs(want), 1) * 1e-4 // %.6g prints ~6 significant digits
		if math.Abs(mean-want) > tol {
			return fmt.Errorf("mean %g inconsistent with sum/n = %g", mean, want)
		}
	}
	var bucketSum uint64
	lastBound := math.Inf(-1)
	sawInf := false
	for _, f := range fields[3:] {
		var cStr string
		var bound float64
		switch {
		case strings.HasPrefix(f, "inf="):
			if sawInf {
				return fmt.Errorf("duplicate inf bucket")
			}
			sawInf = true
			cStr = f[len("inf="):]
		case strings.HasPrefix(f, "le"):
			if sawInf {
				return fmt.Errorf("bucket %q after inf bucket", f)
			}
			eq := strings.IndexByte(f, '=')
			if eq < 0 {
				return fmt.Errorf("bucket %q has no value", f)
			}
			b, err := strconv.ParseFloat(f[2:eq], 64)
			if err != nil {
				return fmt.Errorf("bucket bound in %q is not numeric", f)
			}
			bound = b
			if bound <= lastBound {
				return fmt.Errorf("bucket bounds not strictly increasing at %q", f)
			}
			lastBound = bound
			cStr = f[eq+1:]
		default:
			return fmt.Errorf("unrecognized bucket field %q", f)
		}
		c, err := strconv.ParseUint(cStr, 10, 64)
		if err != nil {
			return fmt.Errorf("bucket count in %q is not a non-negative integer", f)
		}
		bucketSum += c
	}
	if bucketSum != n {
		return fmt.Errorf("bucket counts sum to %d but n=%d", bucketSum, n)
	}
	return nil
}
