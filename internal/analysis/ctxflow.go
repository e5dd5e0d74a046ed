package analysis

import (
	"go/ast"
	"go/types"
)

// NewCtxFlow builds the ctxflow analyzer: a function that takes a
// context.Context must not manufacture context.Background() or context.TODO()
// inside its body.  Doing so silently detaches the work from the caller's
// cancellation and deadline — exactly the bug class the serving path's
// end-to-end ctx plumbing (query timeouts, client disconnects, hedged-request
// cancellation) exists to prevent.
func NewCtxFlow() *Analyzer {
	a := &Analyzer{
		Name: "ctxflow",
		Doc:  "forbid context.Background/TODO inside functions that already take a ctx",
	}
	a.Run = func(pass *Pass) error {
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				if !takesContext(pass, fn) {
					continue
				}
				checkCtxBody(pass, fn)
			}
		}
		return nil
	}
	return a
}

// takesContext reports whether fn declares a parameter of type
// context.Context.
func takesContext(pass *Pass, fn *ast.FuncDecl) bool {
	if fn.Type.Params == nil {
		return false
	}
	for _, field := range fn.Type.Params.List {
		if isContextType(pass.Info.TypeOf(field.Type)) {
			return true
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && isPkg(obj, "context")
}

func checkCtxBody(pass *Pass, fn *ast.FuncDecl) {
	name := fn.Name.Name
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[sel.Sel]
		if !isPkg(obj, "context") {
			return true
		}
		if sel.Sel.Name != "Background" && sel.Sel.Name != "TODO" {
			return true
		}
		pass.Reportf(call.Pos(),
			"%s: context.%s() inside a function that takes a ctx detaches the callee from the caller's cancellation; thread the ctx parameter through",
			name, sel.Sel.Name)
		return true
	})
}
