package janus

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
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
	"internal/fsio.FrameError.Unwrap":    "errors.Is/As walk it",
	"internal/serve.journalError.Unwrap": "errors.Is/As walk it",
	"internal/stm.simHeap.Len":           "container/heap calls it",
	"internal/stm.simHeap.Less":          "container/heap calls it",
	"internal/stm.simHeap.Swap":          "container/heap calls it",
	"internal/stm.simHeap.Push":          "container/heap calls it",
	"internal/stm.simHeap.Pop":           "container/heap calls it",

	// A method of a type the root package re-exports (janus.BitSet,
	// janus.BoolVar, janus.Canvas, janus.IntArray, janus.Trace,
	// janus.CustomObject): the library's API, exercised by the root
	// package's tests.
	"internal/adt.BitSet.Clear":        "library API through janus.BitSet",
	"internal/adt.BoolVar.Store":       "library API through janus.BoolVar",
	"internal/adt.Canvas.DrawPixel":    "library API through janus.Canvas",
	"internal/adt.CustomObject.Clear":  "library API through janus.CustomObject",
	"internal/adt.CustomObject.Delete": "library API through janus.CustomObject",
	"internal/adt.CustomObject.Get":    "library API through janus.CustomObject",
	"internal/adt.CustomObject.Has":    "library API through janus.CustomObject",
	"internal/adt.CustomObject.Put":    "library API through janus.CustomObject",
	"internal/adt.IntArray.Get":        "library API through janus.IntArray",
	"internal/adt.IntArray.Set":        "library API through janus.IntArray",
	"internal/obs.Trace.Reset":         "library API through janus.Trace",

	// A test's reference implementation: a test compares the shipped code
	// against it, so deleting it deletes the oracle.
	"internal/seqeff.PairConflicts": "Figure 8 on analyses: the verdict commute's and seqabs's lemma tests compare with",
	"internal/state.State.Equal":    "Theorem 4.1's comparison: final state against the sequential run's, in every oracle test",

	// What tests in several packages build their inputs with, and the
	// switch that makes a use-after-recycle fail loudly in them.
	"internal/conflict.Prepare":        "artifact of a hand-made log: detector tests in conflict, serve and stm",
	"internal/conflict.PoisonRecycled": "poisoned-recycle runs in stm, chaos and workloads (make race)",

	// The fault-injection harness: package chaos exists to be called from
	// other packages' soak tests.
	"internal/chaos.CorruptSpec":         "janus and chaos corrupt-spec tests",
	"internal/chaos.Injector.WrapPanics": "chaos panic-injection soak",
}

// modulePath is go.mod's module line: what import paths inside the
// repository start with.
const modulePath = "repro"

// moduleImporter type-checks the module's own packages from the parsed
// files, on demand, and hands everything else to the standard library's
// source importer.
type moduleImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File // import path → non-test files
	pkgs  map[string]*types.Package
	std   types.Importer
	info  *types.Info
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.pkgs[path]; ok {
		return pkg, nil
	}
	files, ok := m.files[path]
	if !ok {
		return m.std.Import(path)
	}
	// Errors are dropped: an identifier the checker could not resolve is
	// matched by name, as all of them were before the audit used types.
	conf := types.Config{Importer: m, Error: func(error) {}}
	pkg, _ := conf.Check(path, m.fset, files, m.info)
	m.pkgs[path] = pkg
	return pkg, nil
}

// funcKey names a function or a concrete type's method the way decls are
// keyed, dir.Func or dir.Type.Method; "" for an interface's method.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	if fn.Pkg() == nil {
		return ""
	}
	dir := strings.TrimPrefix(strings.TrimPrefix(fn.Pkg().Path(), modulePath), "/")
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return dir + "." + fn.Name()
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok && !types.IsInterface(named) {
		return dir + "." + named.Obj().Name() + "." + fn.Name()
	}
	return ""
}

// TestNoDeadExports fails on an exported function or method under
// internal/ that no non-test file of the module refers to. An identifier
// the type checker resolves to a function, or to a method of a concrete
// type, is a reference to that declaration alone — so (*state.State).Reset
// being called says nothing about (*obs.Trace).Reset. An identifier that
// resolves to an interface's method (a call through the interface, or its
// method list) or to nothing counts for every declaration of that name,
// so the audit can miss dead code but cannot flag live code, except a
// method only a standard-library interface reaches; those are in
// liveByContract. A constant, variable, field or type is no reference to
// a function that shares its name: the constant relation.Range does not
// keep a method Range alive.
func TestNoDeadExports(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct {
		key  string
		name *ast.Ident
	}
	var decls []decl
	declIdents := map[*ast.Ident]bool{}
	// The source importer would run cgo on the standard library's cgo
	// files; their pure-Go variants declare the same API.
	defer func(was bool) { build.Default.CgoEnabled = was }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false
	mod := &moduleImporter{
		fset:  fset,
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		std:   importer.ForCompiler(fset, "source", nil),
		info:  &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}},
	}
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
		pkgPath := strings.TrimSuffix(modulePath+"/"+dir, "/.") // the root package's dir is "."
		mod.files[pkgPath] = append(mod.files[pkgPath], file)
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
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	usesByKey := map[string]int{}  // occurrences resolved to one declaration
	usesByName := map[string]int{} // all other occurrences outside declarations
	for path, files := range mod.files {
		if _, err := mod.Import(path); err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			ast.Inspect(file, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || declIdents[id] {
					return true
				}
				obj, ok := mod.info.Uses[id]
				if !ok {
					obj = mod.info.Defs[id]
				}
				switch obj := obj.(type) {
				case *types.Func:
					if key := funcKey(obj); key != "" {
						usesByKey[key]++
					} else {
						usesByName[id.Name]++ // an interface's method
					}
				case nil:
					usesByName[id.Name]++ // unresolved
				}
				return true
			})
		}
	}

	var dead []string
	flagged := map[string]bool{}
	for _, d := range decls {
		if usesByKey[d.key] > 0 || usesByName[d.name.Name] > 0 {
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
