package janus

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// liveByContract are exported functions and methods under internal/ that
// no non-test file names, and that stay anyway. Each entry says why.
var liveByContract = map[string]string{
	// Reached through a standard-library interface, never by name.
	"internal/cache.SpecError.Unwrap":    "errors.Is/As walk it",
	"internal/rec.TraceError.Unwrap":     "errors.Is/As walk it",
	"internal/serve.journalError.Unwrap": "errors.Is/As walk it",
	"internal/wal.Error.Unwrap":          "errors.Is/As walk it",
	"internal/relation.canonical.Less":   "sort.Sort calls it",
	"internal/stm.simHeap.Less":          "container/heap calls it",

	// A method of a type the root package re-exports (janus.BitSet,
	// janus.Canvas, janus.Trace, janus.CustomObject): the library's API,
	// exercised by the root package's tests.
	"internal/adt.BitSet.Clear":     "library API through janus.BitSet",
	"internal/adt.Canvas.DrawPixel": "library API through janus.Canvas",
	"internal/obs.Trace.Reset":      "library API through janus.Trace",
	"internal/relspec.Object.Clear": "library API through janus.CustomObject",

	// A test's reference implementation: a test compares the shipped code
	// against it, so deleting it deletes the oracle.
	"internal/sat.Verify":             "checks every model the solver returns, in the solver's tests",
	"internal/logic.EquivalentBrute":  "truth-table oracle for the SAT-backed Equivalent",
	"internal/logic.Xor":              "builds the formulas EquivalentBrute's tests enumerate",
	"internal/affine.AnalyzeSyms":     "the closed-form theory seqeff's verdicts are cross-checked against",
	"internal/affine.PairConflicts":   "the closed-form theory seqeff's verdicts are cross-checked against",
	"internal/seqeff.PairConflicts":   "Figure 8 on analyses: the verdict commute's and seqabs's lemma tests compare with",
	"internal/seqeff.Idempotent":      "the definition BlockIdempotent's allocation-free fold is pinned to",
	"internal/seqeff.IdempotentStack": "the definition BlockIdempotent's allocation-free fold is pinned to",

	// The fault-injection harness: package chaos exists to be called from
	// other packages' soak tests.
	"internal/chaos.CorruptSpec":                "janus and chaos governor soaks",
	"internal/chaos.Injector.WrapPanics":        "chaos panic-injection soak",
	"internal/chaos.CrashPlan.Fired":            "serve crash-recovery soak",
	"internal/chaos.CrashPlan.Visits":           "serve crash-recovery soak",
	"internal/chaos.CrashPoints":                "serve crash-recovery soak",
	"internal/chaos.NewService":                 "serve soak",
	"internal/chaos.ServiceInjector.Deadline":   "serve soak",
	"internal/chaos.ServiceInjector.Disconnect": "serve soak",
	"internal/chaos.ServiceInjector.SlowBatch":  "serve soak",

	// §6: Table 2's primitives beyond insert/remove/matching and Table 3's
	// footprints. No workload reaches them; ROADMAP item 5(c) puts them
	// under the oracle or deletes them.
	"internal/relation.ContentRemove":            "ROADMAP 5(c)",
	"internal/relation.ContentSelect":            "ROADMAP 5(c)",
	"internal/relation.ContentUnion":             "ROADMAP 5(c)",
	"internal/relation.ContentIntersect":         "ROADMAP 5(c)",
	"internal/relation.ContentSubtract":          "ROADMAP 5(c)",
	"internal/relation.Relation.Select":          "ROADMAP 5(c)",
	"internal/relation.Relation.Union":           "ROADMAP 5(c)",
	"internal/relation.Relation.Intersect":       "ROADMAP 5(c)",
	"internal/relation.Relation.InsertFootprint": "ROADMAP 5(c)",
	"internal/relation.Relation.RemoveFootprint": "ROADMAP 5(c)",
	"internal/relation.Relation.SelectFootprint": "ROADMAP 5(c)",
}

// TestNoDeadExports fails on an exported function or method under
// internal/ that no non-test file of the module refers to. Matching is by
// identifier: any use of the name anywhere outside _test.go files — a
// call, a method value, an interface's method list — counts as a
// reference, so the audit can miss dead code but cannot flag live code,
// except a method only a standard-library interface reaches; those are in
// liveByContract.
func TestNoDeadExports(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct {
		key  string
		name *ast.Ident
	}
	var decls []decl
	uses := map[string]int{} // identifier → occurrences outside declarations
	declIdents := map[*ast.Ident]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, d := range file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() || !strings.HasPrefix(dir, "internal/") {
				continue
			}
			key := dir + "." + fn.Name.Name
			if fn.Recv != nil {
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if idx, ok := recv.(*ast.IndexExpr); ok {
					recv = idx.X
				}
				key = dir + "." + recv.(*ast.Ident).Name + "." + fn.Name.Name
			}
			decls = append(decls, decl{key, fn.Name})
			declIdents[fn.Name] = true
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declIdents[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var dead []string
	flagged := map[string]bool{}
	for _, d := range decls {
		if uses[d.name.Name] > 0 {
			continue
		}
		flagged[d.key] = true
		if _, ok := liveByContract[d.key]; !ok {
			dead = append(dead, d.key+" ("+fset.Position(d.name.Pos()).String()+")")
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported but unreferenced outside tests: %s", d)
	}
	for key, why := range liveByContract {
		if why == "" {
			t.Errorf("liveByContract[%q] gives no reason", key)
		}
		if !flagged[key] {
			t.Errorf("liveByContract[%q] is stale: the audit no longer flags it", key)
		}
	}
}
