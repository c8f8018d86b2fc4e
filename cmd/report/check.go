package main

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"dvemig/internal/obs"
)

// Artifact kinds, as sniff names them.
const (
	kindTrace     = "trace"
	kindMetrics   = "metrics"
	kindSeries    = "series"
	kindSeriesCSV = "series csv"
)

// sniff tells an artifact's kind from its content: the series JSON kind
// marker, the series CSV header line, a leading '{' or '[' (a Chrome
// trace), else metrics text. Every artifact the commands write is one
// of the four.
func sniff(data []byte) string {
	switch t := bytes.TrimLeft(data, " \t\r\n"); {
	case obs.LooksLikeSeriesCSV(data):
		return kindSeriesCSV
	case obs.LooksLikeSeriesJSON(data):
		return kindSeries
	case len(t) > 0 && (t[0] == '{' || t[0] == '['):
		return kindTrace
	}
	return kindMetrics
}

// tracecheck exit statuses. When several classes fail across the file
// list, the schema class wins, then metrics, then connectivity, then
// series — the order of failOrder.
const (
	exitSchema    = 1
	exitUsage     = 2
	exitMetrics   = 3
	exitConnected = 4
	exitSeries    = 5
)

var failOrder = []int{exitSchema, exitMetrics, exitConnected, exitSeries}

// checks maps an artifact kind to its validator and the exit status its
// failure earns.
var checks = map[string]struct {
	validate func([]byte) error
	fail     int
}{
	kindTrace:     {obs.ValidateChromeTrace, exitSchema},
	kindMetrics:   {obs.ValidateMetricsText, exitMetrics},
	kindSeries:    {obs.ValidateSeriesJSON, exitSeries},
	kindSeriesCSV: {obs.ValidateSeriesCSV, exitSeries},
}

// tracecheck validates exported artifacts, each with the obs validator
// of its sniffed kind; with -connected, traces must also form the
// connected causal trees obs.CheckConnected asks for. Exit status: 0
// all files valid, 1 trace schema failure, 2 usage/IO error, 3 metrics
// failure, 4 trace connectivity failure, 5 series failure.
func tracecheck(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("tracecheck", stderr)
	connected := fs.Bool("connected", false, "require traces to form connected causal trees with a cross-track migration→inbound link")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: report tracecheck [-connected] file [file ...]")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() < 1 {
		fs.Usage()
		return exitUsage
	}
	failed := map[int]bool{}
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			return die(fs, exitUsage, err)
		}
		kind := sniff(data)
		c, verdict := checks[kind], "ok"
		err = c.validate(data)
		if err == nil && kind == kindTrace && *connected {
			c.fail, verdict = exitConnected, "ok, connected"
			err = obs.CheckConnected(data)
		}
		if err != nil {
			fmt.Fprintf(stderr, "tracecheck: %s: %v\n", path, err)
			failed[c.fail] = true
			continue
		}
		fmt.Fprintf(stdout, "%s: %s %s (%d bytes)\n", path, kind, verdict, len(data))
	}
	for _, code := range failOrder {
		if failed[code] {
			return code
		}
	}
	return 0
}

// obsdiff reports the FIRST point where two traces, or two metrics
// artifacts, of the same experiment diverge, with the divergent span's
// causal ancestry: exports are deterministic functions of a run, so
// everything after it is cascade. Exit status: 0 identical, 1
// divergent, 2 usage/IO/parse error.
func obsdiff(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("obsdiff", stderr)
	fs.Usage = func() { fmt.Fprintln(stderr, "usage: report obsdiff fileA fileB") }
	fs.Parse(args)
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	pathA, pathB := fs.Arg(0), fs.Arg(1)
	a, err := os.ReadFile(pathA)
	if err != nil {
		return die(fs, 2, err)
	}
	b, err := os.ReadFile(pathB)
	if err != nil {
		return die(fs, 2, err)
	}
	kind := sniff(a)
	if kb := sniff(b); kb != kind {
		return die(fs, 2, fmt.Errorf("%s is a %s artifact but %s is a %s one", pathA, kind, pathB, kb))
	}
	diff := obs.DiffMetricsText
	switch kind {
	case kindTrace:
		diff = obs.DiffTraceJSON
	case kindSeries, kindSeriesCSV:
		return die(fs, 2, fmt.Errorf("%s and %s are %s artifacts; obsdiff reads traces and metrics (compare series with cmp)", pathA, pathB, kind))
	}
	d, err := diff(a, b)
	if err != nil {
		return die(fs, 2, err)
	}
	if d == nil {
		fmt.Fprintf(stdout, "%s == %s: identical\n", pathA, pathB)
		return 0
	}
	fmt.Fprintf(stdout, "%s != %s\n%s\n", pathA, pathB, d)
	return 1
}
