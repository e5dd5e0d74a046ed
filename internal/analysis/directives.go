package analysis

import (
	"go/ast"
	"strings"
)

// DirHotPath marks a function for the escape gate.  A directive comment is a
// //-comment with no space between // and oasis:, like //go: directives.
const DirHotPath = "//oasis:hotpath"

// isHotPath reports whether the function declaration carries //oasis:hotpath
// in its doc comment.
func isHotPath(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.HasPrefix(c.Text, DirHotPath) {
			return true
		}
	}
	return false
}
