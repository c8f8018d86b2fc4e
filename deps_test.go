package dvemig

import (
	"errors"
	"go/build"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// internalDeps is the import DAG of dvemig/internal, bottom layer first:
// for each package, the internal packages its non-test files may import.
// It records the tree as it is; try not to let this grow. A new edge
// means a lower layer has learned about a higher one, or a leaf has
// stopped being a leaf — say why in the PR that adds it. Everything
// outside internal/ (the root package, cmd/*, examples/*, benchmark) is
// the top layer and may import anything.
//
// The layers: simtime ← netsim ← netstack ← proc ← {ckpt, sockmig,
// capture, xlat} ← migration ← {lb, faults} ← ctlplane ← dve ← eval.
// flight, simprof and epoch are leaves that import nothing, and so is
// wire, the one frame reader every layer that decodes bytes off the
// network (netstack, ckpt, xlat, migration, lb, ctlplane) reads through. Two edges
// are looser than that sketch, recorded and not fixed: obs reaches up to
// netsim, netstack and proc (harvest.go scrapes their counters, which
// is what keeps those layers obs-free), and faults imports migration
// (CrashAtPhase hangs a node crash on a phase hook).
var internalDeps = map[string][]string{
	"flight":  {},
	"simprof": {},
	"epoch":   {},
	"wire":    {},
	"simtime": {"flight", "simprof"},

	// The decoders' test helpers; only test files import them.
	"wire/wiretest": {},

	"netsim":   {"simtime"},
	"netstack": {"flight", "netsim", "simtime", "wire"},
	"proc":     {"flight", "netsim", "netstack", "simtime"},
	"obs":      {"netsim", "netstack", "proc", "simtime"},
	"trace":    {"netsim", "simtime"},

	"ckpt":    {"netstack", "proc", "simtime", "wire"},
	"sockmig": {"netsim", "netstack", "proc", "wire"},
	"capture": {"netsim", "netstack"},
	"xlat":    {"netsim", "netstack", "simtime", "wire"},

	"migration": {"capture", "ckpt", "epoch", "netsim", "netstack", "obs", "proc", "simprof", "simtime", "sockmig", "wire", "xlat"},

	"lb":       {"migration", "netsim", "netstack", "obs", "proc", "simtime", "wire"},
	"faults":   {"migration", "netsim", "obs", "proc", "simtime"},
	"ctlplane": {"epoch", "lb", "migration", "netsim", "netstack", "obs", "proc", "simtime", "wire"},

	"openarena": {"migration", "netsim", "netstack", "proc", "simtime", "trace"},
	"dve":       {"lb", "migration", "netsim", "netstack", "obs", "proc", "simtime", "trace", "xlat"},

	"eval": {"capture", "ctlplane", "dve", "faults", "flight", "lb", "migration", "netsim", "netstack", "obs", "proc", "simprof", "simtime", "sockmig", "trace", "xlat"},
}

// TestInternalImportDAG reads the import statements of every package
// under internal/ (non-test files, the default build context) and fails
// on an internal import its row does not list, on a package with no
// row, and on a row entry the package no longer imports — the table
// shrinks with the code.
func TestInternalImportDAG(t *testing.T) {
	const prefix = "dvemig/internal/"
	seen := map[string]bool{}
	err := filepath.WalkDir("internal", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		pkg, err := build.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil // testdata, or tests only
		}
		if err != nil {
			return err
		}
		name := filepath.ToSlash(strings.TrimPrefix(dir, "internal"+string(filepath.Separator)))
		allowed, ok := internalDeps[name]
		if !ok {
			t.Errorf("internal/%s has no row in internalDeps", name)
			return nil
		}
		seen[name] = true
		var got []string
		for _, imp := range pkg.Imports {
			if strings.HasPrefix(imp, prefix) {
				got = append(got, strings.TrimPrefix(imp, prefix))
			}
		}
		for _, imp := range got {
			if !slices.Contains(allowed, imp) {
				t.Errorf("internal/%s imports internal/%s, which its row does not allow", name, imp)
			}
		}
		for _, imp := range allowed {
			if !slices.Contains(got, imp) {
				t.Errorf("internal/%s no longer imports internal/%s: delete it from the row", name, imp)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name := range internalDeps {
		if !seen[name] {
			t.Errorf("internalDeps has a row for internal/%s, which does not exist", name)
		}
	}
}
