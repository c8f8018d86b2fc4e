package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUsageErrors pins the exit status 2 and the flag named on stderr
// for arguments every verb must refuse before it simulates anything.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		args  []string
		inErr string
	}{
		{[]string{"migbnech"}, "verbs: lbcluster, migbench, oabench, soak"},
		// Bounded runs, so a lost check costs seconds, not minutes.
		{[]string{"-both", "-duration", "1", "-csv", t.TempDir()}, "-csv"},
		{[]string{"migbench", "-conns", "16", "-repeats", "1", "-what", "freze"}, "-what"},
		{[]string{"migbench", "-conns", "16,0"}, "-conns"},
		{[]string{"migbench", "-conns", "16", "-repeats", "0"}, "-repeats"},
		{[]string{"soak", "-seeds", "1,x"}, "-seeds"},
		{[]string{"soak", "-scenario", "healthy", "-seeds", "1", "-requests", "0"}, "-requests"},
		{[]string{"soak", "-scenario", "healthy", "-seeds", "1", "-procs", "-1"}, "-procs"},
		{[]string{"soak", "-scenario", "healthy", "-seeds", "1", "-inflight", "0"}, "-inflight"},
	}
	for _, tc := range cases {
		var out, errOut bytes.Buffer
		code := run(tc.args, &out, &errOut)
		if code != 2 || !strings.Contains(errOut.String(), tc.inErr) {
			t.Errorf("dvesim %s: exit %d, stderr %q; want 2 naming %q", strings.Join(tc.args, " "), code, errOut.String(), tc.inErr)
		}
		if out.Len() != 0 {
			t.Errorf("dvesim %s: printed %q on stdout", strings.Join(tc.args, " "), out.String())
		}
	}
}
