//go:build !race

package repro

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// keptWithoutCaller names the exported internal/ functions and methods that
// stay although no non-test code of this module or of bench/ calls them,
// each with the reason it stays. A key is types.Func.FullName. An entry
// whose function gains a caller, or goes, fails the test too.
var keptWithoutCaller = map[string]string{
	"(*repro/internal/core.Installed).Lease":             "public API: pivot.Query is core.Installed, and README documents Lease",
	"(*repro/internal/core.Installed).Quarantines":       "public API: pivot.Query is core.Installed, and README documents Quarantines",
	"(*repro/internal/core.Installed).Schema":            "public API: pivot.Query is core.Installed, and README documents Schema",
	"(*repro/internal/tracepoint.Tracepoint).Panics":     "public API: pivot.Tracepoint is tracepoint.Tracepoint",
	"repro/internal/simtime.NewQueue":                    "simtime.Queue stays whole: the gated BenchmarkSimHandoff measures it, and a simulated transport is its natural reader",
	"(*repro/internal/simtime.Queue[T]).Push":            "simtime.Queue stays whole (see NewQueue)",
	"(*repro/internal/simtime.Queue[T]).Pop":             "simtime.Queue stays whole (see NewQueue)",
	"(*repro/internal/simtime.Queue[T]).PopTimeout":      "simtime.Queue stays whole (see NewQueue)",
	"(*repro/internal/simtime.Queue[T]).Len":             "simtime.Queue stays whole (see NewQueue)",
	"(*repro/internal/tracepoint.Registry).SetFailpoint": "fault-injection hook: the safety suites make advice panic through it",
	"repro/internal/oracle.Format":                       "renders oracle rows in the failure messages of the differential suites",
}

// testSupport are the packages that exist to serve tests: their exported
// names have test callers only, by design.
var testSupport = []string{"querygen", "randtest", "faultinject"}

// TestInternalFuncsHaveProductionCallers fails for every exported function or
// method under internal/ that no non-test code of this module, and no file of
// bench/, refers to: code that only tests reach is not production code. A
// method that implements an interface counts as used, since a call through
// the interface names the interface's method, not the concrete one.
func TestInternalFuncsHaveProductionCallers(t *testing.T) {
	imp := loadModule(t)
	uncalled := map[string]bool{}
	for _, fn := range imp.decls {
		if !fn.Exported() || imp.used(fn) || imp.implements(fn) {
			continue
		}
		path := fn.Pkg().Path()
		if strings.HasPrefix(path, "repro/internal/") && !slices.Contains(testSupport, strings.TrimPrefix(path, "repro/internal/")) {
			uncalled[fn.FullName()] = true
		}
	}
	var missing []string
	for name := range uncalled {
		if _, kept := keptWithoutCaller[name]; !kept {
			missing = append(missing, name)
		}
	}
	slices.Sort(missing)
	for _, name := range missing {
		t.Errorf("%s: exported, but only tests call it", name)
	}
	for name := range keptWithoutCaller {
		if !uncalled[name] {
			t.Errorf("keptWithoutCaller names %s, which is gone or has a production caller now: drop the entry", name)
		}
	}
}

// loadModule type-checks every package of this module from source, its
// non-test files, and bench/ with its tests.
func loadModule(t *testing.T) *moduleImporter {
	fset := token.NewFileSet()
	imp := &moduleImporter{
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:   map[string]*types.Package{},
		bodies: map[*types.Func]*ast.FuncDecl{},
		uses:   map[*types.Func][]token.Pos{},
		ifaces: map[*types.Interface]bool{},
	}
	err := filepath.WalkDir(".", func(dir string, d os.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case !d.IsDir():
			return nil
		case dir != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || dir == "bench"):
			return filepath.SkipDir
		}
		_, err = imp.check(path.Join("repro", filepath.ToSlash(dir)), dir, false)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// bench/ is a module of its own: every file of it, tests included,
	// counts as a caller, because this module may not break it.
	if _, err := imp.check("repro/bench", "bench", true); err != nil {
		t.Fatal(err)
	}
	return imp
}

// moduleImporter type-checks this module's packages itself, so that every
// reference resolves to one object, and leaves the standard library to the
// source importer.
type moduleImporter struct {
	fset    *token.FileSet
	std     types.ImporterFrom
	pkgs    map[string]*types.Package
	checked []checkedPackage
	decls   []*types.Func
	bodies  map[*types.Func]*ast.FuncDecl
	uses    map[*types.Func][]token.Pos
	ifaces  map[*types.Interface]bool
}

// checkedPackage is one package as the importer type-checked it.
type checkedPackage struct {
	path  string
	files []*ast.File
	info  *types.Info
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	rel, ok := strings.CutPrefix(path, "repro/")
	if !ok {
		return m.std.ImportFrom(path, dir, mode)
	}
	return m.check(path, filepath.FromSlash(rel), false)
}

// check type-checks the package in dir once, recording the functions it
// declares, the functions its code refers to and the interfaces it names.
// A directory without Go files yields a nil package.
func (m *moduleImporter) check(path, dir string, withTests bool) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	bp, err := build.ImportDir(dir, 0)
	if _, none := err.(*build.NoGoError); none {
		m.pkgs[path] = nil
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	names := bp.GoFiles
	if withTests {
		names = append(slices.Clip(names), bp.TestGoFiles...)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	p, err := (&types.Config{Importer: m}).Check(path, m.fset, files, info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = p
	m.checked = append(m.checked, checkedPackage{path, files, info})
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				fn := info.Defs[fd.Name].(*types.Func)
				m.decls = append(m.decls, fn)
				m.bodies[fn] = fd
			}
		}
	}
	for id, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			fn = fn.Origin()
			m.uses[fn] = append(m.uses[fn], id.Pos())
		}
	}
	for _, tv := range info.Types {
		if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			m.ifaces[it] = true
		}
	}
	m.collectInterfaces(p, map[*types.Package]bool{})
	return p, nil
}

// collectInterfaces records the named interfaces of p and of every package
// it imports, the standard library's included.
func (m *moduleImporter) collectInterfaces(p *types.Package, seen map[*types.Package]bool) {
	if seen[p] {
		return
	}
	seen[p] = true
	for _, name := range p.Scope().Names() {
		if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				m.ifaces[it] = true
			}
		}
	}
	for _, q := range p.Imports() {
		m.collectInterfaces(q, seen)
	}
}

// used reports whether code outside fn's own body refers to fn.
func (m *moduleImporter) used(fn *types.Func) bool {
	body := m.bodies[fn]
	for _, pos := range m.uses[fn] {
		if pos < body.Pos() || pos >= body.End() {
			return true
		}
	}
	return false
}

// implements reports whether fn is a method by which its receiver type
// satisfies an interface that has a method of fn's name.
func (m *moduleImporter) implements(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	typ := recv.Type()
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	for it := range m.ifaces {
		for i := range it.NumMethods() {
			if it.Method(i).Name() != fn.Name() {
				continue
			}
			if types.Implements(typ, it) || types.Implements(types.NewPointer(typ), it) {
				return true
			}
		}
	}
	return false
}
