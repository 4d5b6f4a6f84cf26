//go:build !race

package repro

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"testing"
)

// keptGlobal names the package-level variables of the module's non-test
// code that hold mutable state, each with the reason it stays. A key is
// "<package path>.<name>". An entry whose variable goes, or holds no
// mutable state any more, fails the test too.
var keptGlobal = map[string]string{}

// TestNoProcessGlobalState fails for every package-level variable of the
// module's non-test code that two runtimes, or two simulations, in one
// process would share as mutable state: one whose type holds a sync/atomic
// value or a sync type other than sync.Pool, or one that non-test code
// assigns, increments, or takes the address of after its declaration. The
// paper gives each process its own agent and scopes baggage to the
// request; state that outlives both belongs to the runtime that owns it.
func TestNoProcessGlobalState(t *testing.T) {
	imp := loadModule(t)
	globals := map[*types.Var]string{} // package-level variable -> key
	mutable := map[string]string{}     // key -> why
	for _, pkg := range imp.checked {
		if pkg.path == "repro/bench" {
			continue
		}
		for _, f := range pkg.files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					for _, name := range spec.(*ast.ValueSpec).Names {
						v := pkg.info.Defs[name].(*types.Var)
						key := pkg.path + "." + name.Name
						globals[v] = key
						if holdsSync(v.Type(), map[types.Type]bool{}) {
							mutable[key] = "its type holds a sync or sync/atomic value"
						}
					}
				}
			}
		}
	}
	for _, pkg := range imp.checked {
		if pkg.path == "repro/bench" {
			continue
		}
		written := func(e ast.Expr, how string) {
			if key, ok := globals[rootVar(pkg.info, e)]; ok && mutable[key] == "" {
				mutable[key] = how + " in " + pkg.path
			}
		}
		for _, f := range pkg.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if n.Tok != token.DEFINE {
						for _, lhs := range n.Lhs {
							written(lhs, "assigned")
						}
					}
				case *ast.IncDecStmt:
					written(n.X, "incremented")
				case *ast.RangeStmt:
					if n.Tok == token.ASSIGN {
						written(n.Key, "assigned")
						if n.Value != nil {
							written(n.Value, "assigned")
						}
					}
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						written(n.X, "its address taken")
					}
				case *ast.SelectorExpr:
					// A pointer method called on an addressable value takes
					// its address; sync.Pool's own methods are allowed.
					sel := pkg.info.Selections[n]
					if sel == nil || sel.Kind() != types.MethodVal || sel.Obj().Pkg() != nil && sel.Obj().Pkg().Path() == "sync" {
						break
					}
					_, ptrRecv := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
					_, ptrX := pkg.info.Types[n.X].Type.Underlying().(*types.Pointer)
					if ptrRecv && !ptrX {
						written(n.X, "its address taken by a method call")
					}
				}
				return true
			})
		}
	}
	var found []string
	for key, why := range mutable {
		if _, kept := keptGlobal[key]; !kept {
			found = append(found, key+": "+why)
		}
	}
	slices.Sort(found)
	for _, f := range found {
		t.Errorf("process-global mutable state: %s", f)
	}
	for key := range keptGlobal {
		if mutable[key] == "" {
			t.Errorf("keptGlobal names %s, which is gone or no longer mutable: drop the entry", key)
		}
	}
}

// holdsSync reports whether a value of type t holds a sync/atomic value or
// a sync type other than sync.Pool, in itself or in what it points to.
func holdsSync(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil {
		switch n.Obj().Pkg().Path() {
		case "sync/atomic":
			return true
		case "sync":
			return n.Obj().Name() != "Pool"
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := range u.NumFields() {
			if holdsSync(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Pointer:
		return holdsSync(u.Elem(), seen)
	case *types.Array:
		return holdsSync(u.Elem(), seen)
	case *types.Slice:
		return holdsSync(u.Elem(), seen)
	case *types.Map:
		return holdsSync(u.Key(), seen) || holdsSync(u.Elem(), seen)
	}
	return false
}

// rootVar returns the variable an assignable expression writes into: x for
// x, x.f, x[i], *x and pkg.x. It returns nil for anything else.
func rootVar(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			v, _ := info.Uses[x].(*types.Var)
			return v
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			if _, qualified := info.Uses[x.Sel].(*types.Var); qualified && info.Selections[x] == nil {
				e = x.Sel
			} else {
				e = x.X
			}
		default:
			return nil
		}
	}
}
