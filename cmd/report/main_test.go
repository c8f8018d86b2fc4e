package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dvemig/internal/obs"
	"dvemig/internal/simtime"
)

// capture is a small observed run: one span with a child, an instant,
// a counter bumped n times and a sampler over two one-second windows.
func capture(n uint64) *obs.Capture {
	sched := simtime.NewScheduler()
	o := obs.New(sched)
	s := obs.NewSampler(sched, o.Metrics, simtime.Duration(time.Second), 0)
	o.Sampler = s
	s.Start()
	root := o.T().Start("node1", "migration")
	o.M().Counter("reqs").Add(n)
	sched.RunFor(simtime.Duration(time.Second) / 2)
	child := root.Child("precopy")
	o.T().Instant("node2", "fault", obs.Attr{Key: "kind", Val: "drop"})
	sched.RunFor(2 * simtime.Duration(time.Second))
	child.Close()
	root.Close()
	s.Stop()
	return o.Capture("run")
}

// artifacts writes capture(n) in all four artifact forms into dir and
// returns their paths by kind.
func artifacts(t *testing.T, dir string, n uint64) map[string]string {
	t.Helper()
	c := capture(n)
	paths := map[string]string{}
	for kind, w := range map[string]func(io.Writer, ...*obs.Capture) error{
		kindTrace:     obs.WriteChromeTrace,
		kindMetrics:   obs.WriteMetricsText,
		kindSeries:    obs.WriteSeriesJSON,
		kindSeriesCSV: obs.WriteSeriesCSV,
	} {
		var buf bytes.Buffer
		if err := w(&buf, c); err != nil {
			t.Fatal(err)
		}
		paths[kind] = write(t, dir, strings.ReplaceAll(kind, " ", "-"), buf.String())
	}
	return paths
}

func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func runReport(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestTracecheckExitCodes(t *testing.T) {
	dir := t.TempDir()
	good := artifacts(t, dir, 3)
	bad := map[string]string{
		kindTrace:     write(t, dir, "bad-trace", `{"traceEvents":[]}`),
		kindMetrics:   write(t, dir, "bad-metrics", "# counters\nreqs -1\n"),
		kindSeries:    write(t, dir, "bad-series", `{"kind":"dvemig-series","captures":[]}`),
		kindSeriesCSV: write(t, dir, "bad-series-csv", "capture,series,kind,t_ns,value\nrun,reqs,bogus,1,1\n"),
	}
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"all four forms valid", []string{good[kindTrace], good[kindMetrics], good[kindSeries], good[kindSeriesCSV]}, 0},
		{"trace schema", []string{bad[kindTrace]}, 1},
		{"no files", nil, 2},
		{"missing file", []string{filepath.Join(dir, "absent")}, 2},
		{"metrics", []string{bad[kindMetrics]}, 3},
		{"unconnected trace", []string{"-connected", good[kindTrace]}, 4},
		{"series json", []string{bad[kindSeries]}, 5},
		{"series csv", []string{bad[kindSeriesCSV]}, 5},
		{"schema beats metrics", []string{bad[kindMetrics], bad[kindTrace]}, 1},
		{"metrics beats connectivity", []string{"-connected", good[kindTrace], bad[kindMetrics]}, 3},
		{"connectivity beats series", []string{"-connected", bad[kindSeries], good[kindTrace]}, 4},
		{"-connected ignores other kinds", []string{"-connected", good[kindMetrics], good[kindSeries]}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errOut := runReport(append([]string{"tracecheck"}, tc.args...)...)
			if code != tc.want {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.want, out, errOut)
			}
		})
	}

	_, out, _ := runReport("tracecheck", good[kindSeriesCSV], good[kindMetrics])
	for _, want := range []string{"series csv ok", "metrics ok"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout lacks %q:\n%s", want, out)
		}
	}
}

func TestObsdiffExitCodes(t *testing.T) {
	a := artifacts(t, t.TempDir(), 3)
	b := artifacts(t, t.TempDir(), 3)
	c := artifacts(t, t.TempDir(), 4)
	cases := []struct {
		name  string
		args  []string
		want  int
		inErr string // substring of stderr, when set
	}{
		{"identical traces", []string{a[kindTrace], b[kindTrace]}, 0, ""},
		{"identical metrics", []string{a[kindMetrics], b[kindMetrics]}, 0, ""},
		{"divergent metrics", []string{a[kindMetrics], c[kindMetrics]}, 1, ""},
		{"mixed kinds", []string{a[kindTrace], a[kindMetrics]}, 2, "trace artifact"},
		{"series json", []string{a[kindSeries], b[kindSeries]}, 2, "are series artifacts"},
		{"series csv", []string{a[kindSeriesCSV], b[kindSeriesCSV]}, 2, "are series csv artifacts"},
		{"one file", []string{a[kindTrace]}, 2, "usage"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errOut := runReport(append([]string{"obsdiff"}, tc.args...)...)
			if code != tc.want || !strings.Contains(errOut, tc.inErr) {
				t.Fatalf("exit %d, want %d with %q on stderr\nstdout:\n%s\nstderr:\n%s", code, tc.want, tc.inErr, out, errOut)
			}
		})
	}
}

func TestReportUnknownVerb(t *testing.T) {
	code, _, errOut := runReport("tracechek", "x.json")
	if code != 2 || !strings.Contains(errOut, "obsdiff, tracecheck") {
		t.Fatalf("exit %d, stderr %q; want 2 and the verb list", code, errOut)
	}
}
