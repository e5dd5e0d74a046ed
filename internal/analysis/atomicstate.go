package analysis

import (
	"go/ast"
	"go/types"
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

// NewAtomicState builds the atomicstate analyzer: product code must not call
// a raw sync/atomic function.  Shared words use the typed wrappers
// (atomic.Int64, atomic.Bool, atomic.Pointer, ...), whose value cannot be
// read or written plainly, so the data race of a word accessed atomically in
// one place and plainly in another — which the race detector only catches
// when both sides run in one test — cannot be written at all.
func NewAtomicState() *Analyzer {
	a := &Analyzer{
		Name: "atomicstate",
		Doc:  "forbid raw sync/atomic functions; use the typed atomic wrappers",
	}
	a.Run = func(pass *Pass) error {
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if name, ok := atomicCall(pass, call); ok {
						pass.Reportf(call.Pos(), "raw atomic.%s: use a typed sync/atomic wrapper, which cannot also be accessed plainly", name)
					}
				}
				return true
			})
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
