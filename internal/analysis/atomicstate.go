package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// atomicFuncs are the sync/atomic package-level functions whose first
// argument is a *T pointer to the word being accessed atomically.
var atomicFuncs = map[string]bool{
	"AddInt32": true, "AddInt64": true, "AddUint32": true, "AddUint64": true, "AddUintptr": true,
	"LoadInt32": true, "LoadInt64": true, "LoadUint32": true, "LoadUint64": true, "LoadUintptr": true, "LoadPointer": true,
	"StoreInt32": true, "StoreInt64": true, "StoreUint32": true, "StoreUint64": true, "StoreUintptr": true, "StorePointer": true,
	"SwapInt32": true, "SwapInt64": true, "SwapUint32": true, "SwapUint64": true, "SwapUintptr": true, "SwapPointer": true,
	"CompareAndSwapInt32": true, "CompareAndSwapInt64": true, "CompareAndSwapUint32": true,
	"CompareAndSwapUint64": true, "CompareAndSwapUintptr": true, "CompareAndSwapPointer": true,
}

// NewAtomicState builds the atomicstate analyzer: a struct field accessed
// through a sync/atomic function anywhere in the module must never be read or
// written plainly elsewhere.  Mixed access is a data race that the race
// detector only catches when both sides happen to execute in one test run —
// precisely the kind of latent serving bug that surfaces under production
// load.  (Fields of the typed atomic.Int64/Pointer/... wrappers cannot be
// accessed plainly at all, which is why new code should prefer them; this
// analyzer polices the raw-function escape hatch.)
func NewAtomicState() *Analyzer {
	// fieldKey is "pkgpath.RecvType.Field"; positions are kept so Finish can
	// report plain accesses recorded before the atomic use was discovered.
	type plainUse struct {
		key string
		pos token.Position
	}
	atomicFields := map[string]token.Position{}
	var plains []plainUse

	a := &Analyzer{
		Name: "atomicstate",
		Doc:  "fields accessed via sync/atomic must never be accessed plainly",
	}
	a.Collect = func(pass *Pass) error {
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if _, ok := atomicCall(pass, call); ok && len(call.Args) > 0 {
					if key, ok := addrOfFieldKey(pass, call.Args[0]); ok {
						if _, seen := atomicFields[key]; !seen {
							atomicFields[key] = pass.Fset.Position(call.Args[0].Pos())
						}
					}
				}
				return true
			})
		}
		return nil
	}
	a.Run = func(pass *Pass) error {
		for _, file := range pass.Files {
			// Selector nodes that ARE the atomic access (&x.f inside an atomic
			// call's first argument) are sanctioned; every other mention of an
			// atomic field is plain.
			sanctioned := map[*ast.SelectorExpr]bool{}
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if _, ok := atomicCall(pass, call); ok && len(call.Args) > 0 {
					if sel, ok := fieldSelUnderAddr(call.Args[0]); ok {
						sanctioned[sel] = true
					}
				}
				return true
			})
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || sanctioned[sel] {
					return true
				}
				key, ok := selFieldKey(pass, sel)
				if !ok {
					return true
				}
				plains = append(plains, plainUse{key: key, pos: pass.Fset.Position(sel.Pos())})
				return true
			})
		}
		return nil
	}
	a.Finish = func(report func(Diagnostic)) error {
		for _, p := range plains {
			if _, ok := atomicFields[p.key]; ok {
				report(Diagnostic{Pos: p.pos, Message: p.key + " is accessed via sync/atomic elsewhere; this plain access races with it (use the atomic op)"})
			}
		}
		return nil
	}
	return a
}

// atomicCall reports whether call invokes a sync/atomic package function with
// a pointer-to-word first argument, returning the function name.
func atomicCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pkgName, ok := pass.Info.Uses[id].(*types.PkgName)
	if !ok || pkgName.Imported().Path() != "sync/atomic" {
		return "", false
	}
	if !atomicFuncs[sel.Sel.Name] {
		return "", false
	}
	return sel.Sel.Name, true
}

// fieldSelUnderAddr unwraps &x.f (with any parenthesization) to the field
// selector.
func fieldSelUnderAddr(arg ast.Expr) (*ast.SelectorExpr, bool) {
	u, ok := ast.Unparen(arg).(*ast.UnaryExpr)
	if !ok || u.Op != token.AND {
		return nil, false
	}
	sel, ok := ast.Unparen(u.X).(*ast.SelectorExpr)
	return sel, ok
}

// addrOfFieldKey resolves &x.f to its field key.
func addrOfFieldKey(pass *Pass, arg ast.Expr) (string, bool) {
	sel, ok := fieldSelUnderAddr(arg)
	if !ok {
		return "", false
	}
	return selFieldKey(pass, sel)
}

// selFieldKey resolves a field-selector expression to "pkgpath.Type.Field".
func selFieldKey(pass *Pass, sel *ast.SelectorExpr) (string, bool) {
	s := pass.Info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return "", false
	}
	v, ok := s.Obj().(*types.Var)
	if !ok || v.Pkg() == nil {
		return "", false
	}
	recv := s.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return "", false
	}
	var b strings.Builder
	b.WriteString(v.Pkg().Path())
	b.WriteByte('.')
	b.WriteString(named.Obj().Name())
	b.WriteByte('.')
	b.WriteString(v.Name())
	return b.String(), true
}
