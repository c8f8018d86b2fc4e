package dvemig

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dvemig/internal/ctlplane"
	"dvemig/internal/dve"
	"dvemig/internal/eval"
	"dvemig/internal/lb"
	"dvemig/internal/migration"
	"dvemig/internal/openarena"
	"dvemig/internal/sockmig"
)

// knobs is the ledger of settable values: every struct under internal/
// whose name ends in Config or Options, with its exported fields. It
// records the tree as it is; try not to let it grow. A field that only
// ever holds its default belongs beside its reader as a constant, so a
// new field needs a second value somewhere — a CLI flag, a test, a
// caller — and the PR that adds it says which.
var knobs = []struct {
	typ    reflect.Type
	fields []string
}{
	{reflect.TypeFor[ctlplane.Config](), []string{"Period", "Retry", "MaxRetries", "Deadline", "CancelGrace", "ProbeAfter", "HelloPeriod", "TakeoverAfter", "Seed"}},
	{reflect.TypeFor[dve.Config](), []string{"Nodes", "Clients", "Duration", "LB", "LBConfig", "MigConfig", "Zone", "NeighborLinks", "MoveProb", "MoveStart", "Seed", "Observe"}},
	{reflect.TypeFor[dve.ZoneServerConfig](), []string{"LoopPeriod", "MemPages"}},
	{reflect.TypeFor[eval.ChaosConfig](), []string{"Scenarios", "Seeds", "MigCfg", "Workers", "Observe", "Prof"}},
	{reflect.TypeFor[eval.DispatchConfig](), []string{"Rate", "Duration"}},
	{reflect.TypeFor[eval.FreezeConfig](), []string{"Conns", "Strategy", "MemPages", "Repeats", "MigCfg", "Workers", "Observe", "Seed", "Prof"}},
	{reflect.TypeFor[eval.SoakConfig](), []string{"Scenarios", "Seeds", "Requests", "Procs", "Inflight", "Strategy", "CancelFraction", "MigCfg", "Workers", "Observe", "Horizon", "SamplePeriod", "Prof"}},
	{reflect.TypeFor[lb.Config](), []string{"Period", "ImbalanceThreshold", "CalmDown"}},
	{reflect.TypeFor[migration.Config](), []string{"Strategy", "InitialTimeout", "EnablePrecopy", "EnableCapture", "Deadline", "ConnTimeout", "ConnRetries", "RetryBackoff", "RetryBackoffMax", "RetryJitter", "InboundLease", "Mig", "PrefetchInterval", "PrefetchBatch"}},
	{reflect.TypeFor[openarena.Fig4Config](), []string{"Clients", "Server", "MigCfg", "MigrateAt", "Duration"}},
	{reflect.TypeFor[openarena.ServerConfig](), []string{"MemPages", "DirtyPerFrame", "CPUDemand"}},
	{reflect.TypeFor[sockmig.RestoreOptions](), []string{"LocalNet", "LocalNetBits", "NewLocalIP"}},
}

// knobName is the ledger key of a config type: "<package>.<Type>".
func knobName(t reflect.Type) string { return path.Base(t.PkgPath()) + "." + t.Name() }

// TestKnobLedger fails on an exported field a ledger row lacks, on a row
// entry its struct no longer has, on a Config/Options struct under
// internal/ with no row, and on a row whose struct is gone — the count
// of settable values shrinks with the code.
func TestKnobLedger(t *testing.T) {
	total := 0
	rows := map[string]bool{}
	for _, k := range knobs {
		name := knobName(k.typ)
		rows[name] = true
		var got []string
		for i := range k.typ.NumField() {
			if f := k.typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		total += len(got)
		for _, f := range got {
			if !slices.Contains(k.fields, f) {
				t.Errorf("%s.%s is settable but not in the knobs ledger", name, f)
			}
		}
		for _, f := range k.fields {
			if !slices.Contains(got, f) {
				t.Errorf("%s no longer has field %s: delete it from the ledger", name, f)
			}
		}
	}
	t.Logf("%d settable values across %d structs", total, len(knobs))

	declared := map[string]bool{}
	err := filepath.WalkDir("internal", func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			g, ok := decl.(*ast.GenDecl)
			if !ok || g.Tok != token.TYPE {
				continue
			}
			for _, s := range g.Specs {
				ts := s.(*ast.TypeSpec)
				if _, isStruct := ts.Type.(*ast.StructType); !isStruct {
					continue
				}
				if n := ts.Name.Name; strings.HasSuffix(n, "Config") || strings.HasSuffix(n, "Options") {
					declared[f.Name.Name+"."+n] = true
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name := range declared {
		if !rows[name] {
			t.Errorf("%s has no row in the knobs ledger", name)
		}
	}
	for name := range rows {
		if !declared[name] {
			t.Errorf("the knobs ledger has a row for %s, which is not a Config/Options struct under internal/", name)
		}
	}
}
