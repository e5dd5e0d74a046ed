// Package analysis is the project's static-invariant suite: a set of
// go/analysis-style analyzers, written against the standard library only (the
// container deliberately carries no golang.org/x/tools), that turn the
// invariants this codebase's performance and correctness rest on — stated
// until now only in comments — into machine-checked CI failures.
//
// The analyzers (run by cmd/oasis-vet over ./...):
//
//   - ctxflow: a function that takes a context.Context must not manufacture
//     context.Background() or context.TODO() inside its body — that silently
//     detaches the callee from cancellation and deadlines the caller set.
//
//   - faultsite: every faultpoint.Hit/HitBuf site name must be one of the
//     Site* constants registered in internal/faultpoint, every registered
//     site must have at least one live call site, and every registered site
//     must be exercised by a test or CI reference — so failpoints cannot rot
//     into untested names.
//
//   - atomicstate: no raw sync/atomic function calls; shared words use the
//     typed wrappers, which cannot also be read or written plainly — the data
//     race the race detector only finds when both sides happen to run.
//
// The package also hosts the escape gate (escape.go), the one allocation
// guard: it finds every package with a function marked //oasis:hotpath (the
// kernel's column sweep, the node and accumulator stores, the bucket queue,
// the shard merge, the NDJSON encoders, the shard-line decoder and a disk
// search's per-request path), compiles those packages with -gcflags=-S, and
// counts each hotpath function's calls to runtime allocators, fmt and
// bounds-check panics.  Any count that differs from
// testdata/escape_allowlist.txt fails TestEscapeGateRealTree.
//
// Run the suite locally with:
//
//	go run ./cmd/oasis-vet ./...
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Diagnostic is one analyzer finding, resolved to a concrete file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed, type-checked non-test files.
	Files []*ast.File
	// TestSrc maps the package's test file names (internal and external) to
	// their raw contents.  Test files are not type-checked; analyzers that
	// need "is this name referenced by a test" (faultsite) scan them
	// textually.
	TestSrc map[string][]byte
	Pkg     *types.Package
	Info    *types.Info
	// Dir is the package directory on disk.
	Dir string

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one invariant checker.  Run is required; Collect (a gathering
// phase executed over every package before any Run) and Finish (a global
// reconciliation executed after every Run) are optional and let an analyzer
// check whole-program invariants (faultsite) while still reporting per-file
// positions.
//
// Analyzers with cross-package state are constructed fresh per suite run (see
// Analyzers); Run/Collect/Finish closures own that state, so two concurrent
// suites never share it.
type Analyzer struct {
	Name string
	Doc  string
	// Collect gathers facts from one package.  Optional.
	Collect func(*Pass) error
	// Run checks one package, reporting findings via Pass.Reportf.
	Run func(*Pass) error
	// Finish runs once after every package's Run, for whole-program checks.
	// Optional.
	Finish func(report func(Diagnostic)) error
}

// Analyzers returns a fresh instance of the full suite, in the order
// cmd/oasis-vet runs them.  Fresh instances matter: faultsite accumulates
// cross-package facts inside its closures.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NewCtxFlow(),
		NewFaultSite(nil),
		NewAtomicState(),
	}
}

// isPkg reports whether obj belongs to the package with the given import
// path (nil-safe; universe objects have a nil package).
func isPkg(obj types.Object, path string) bool {
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == path
}
