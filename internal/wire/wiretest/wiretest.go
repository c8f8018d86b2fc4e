// Package wiretest holds the test helpers for the decoders of network
// bytes: reading a fuzz target's committed corpus, so an ordinary test
// can run a property over the same inputs, and bounding what a decode
// allocates in proportion to its input.
package wiretest

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// Corpus returns the committed corpus of fuzz target, read from
// testdata/fuzz/<target> of the package under test: one argument list
// per entry, in file-name order, each value typed as the fuzz function
// takes it ([]byte or int; an entry holding another type fails tb). A
// missing directory is an empty corpus.
func Corpus(tb testing.TB, target string) [][]any {
	tb.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]any
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		args, err := parseEntry(string(b))
		if err != nil {
			tb.Fatalf("%s: %v", filepath.Join(dir, e.Name()), err)
		}
		out = append(out, args)
	}
	return out
}

// parseEntry parses one corpus file: the "go test fuzz v1" line, then
// one value a line, written as type(literal).
func parseEntry(s string) ([]any, error) {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) == 0 || lines[0] != "go test fuzz v1" {
		return nil, fmt.Errorf("not a fuzz corpus file")
	}
	var args []any
	for _, line := range lines[1:] {
		typ, lit, ok := strings.Cut(strings.TrimSpace(line), "(")
		if !ok || !strings.HasSuffix(lit, ")") {
			return nil, fmt.Errorf("malformed value %q", line)
		}
		lit = lit[:len(lit)-1]
		var v any
		var err error
		switch typ {
		case "[]byte":
			var s string
			s, err = strconv.Unquote(lit)
			v = []byte(s)
		case "int":
			v, err = strconv.Atoi(lit)
		default:
			return nil, fmt.Errorf("unsupported type %q", typ)
		}
		if err != nil {
			return nil, fmt.Errorf("value %q: %v", line, err)
		}
		args = append(args, v)
	}
	return args, nil
}

// AllocatedBytes is what one call of fn allocates, read from the
// runtime's cumulative count; nothing else may run meanwhile. The root
// package's allocation gates measure with it too.
func AllocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// CheckAllocBound fails tb unless fn, a decode of an n-byte input,
// allocates at most k·n + c bytes. Under -race fn still runs, and a
// bound it exceeds is only logged (see SkipAllocBound).
func CheckAllocBound(tb testing.TB, what string, n int, k, c uint64, fn func()) {
	tb.Helper()
	got, limit := AllocatedBytes(fn), k*uint64(n)+c
	if got > limit && !SkipAllocBound(tb, what) {
		tb.Errorf("%s: %d input bytes allocated %d bytes, want at most %d·%d + %d = %d",
			what, n, got, k, n, c, limit)
	}
}

// SkipAllocBound reports whether an allocation bound — bytes or
// objects — must go unchecked, and logs why when it must: under -race
// the runtime's own allocations land in the same counters. A gate calls
// it only where its bound would fail, so under the race detector the
// rest of the test still runs and checks; every build without -race
// checks the bound too.
func SkipAllocBound(tb testing.TB, what string) bool {
	tb.Helper()
	if raceEnabled {
		tb.Logf("%s: allocation bound not checked: the race runtime allocates differently", what)
	}
	return raceEnabled
}
