// Package analysistest runs internal/analysis analyzers over small fixture
// packages under testdata/src, checking reported findings against // want
// comments — the same contract as golang.org/x/tools' analysistest, rebuilt
// on the standard library because this container carries no x/tools.
//
// A fixture package lives in <testdata>/src/<name>/ as plain .go files.
// Files named *_test.go are NOT type-checked; their raw text is exposed to
// analyzers through Pass.TestSrc (the faultsite analyzer's test-reference
// check reads it).  Fixture imports resolve first against sibling fixture
// directories (so a fixture faultuser can import a fixture faultpoint), then
// against the standard library, type-checked from source.
//
// Expectations are trailing comments of the form
//
//	code() // want "substring or regexp" "another"
//
// Each quoted pattern is a regexp that must match exactly one diagnostic
// reported on that line; unmatched diagnostics and unsatisfied wants both
// fail the test.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// Run loads the named fixture packages from dir/src, runs the analyzers'
// Collect/Run/Finish phases over all of them, and checks every finding
// against the fixtures' // want comments.
func Run(t *testing.T, dir string, analyzers []*analysis.Analyzer, pkgNames ...string) {
	t.Helper()
	fset := token.NewFileSet()
	ld := &fixtureLoader{
		root: filepath.Join(dir, "src"),
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*types.Package{},
	}
	var pkgs []*analysis.Package
	for _, name := range pkgNames {
		p, err := ld.load(name)
		if err != nil {
			t.Fatalf("fixture %s: %v", name, err)
		}
		pkgs = append(pkgs, p)
	}
	diags, err := analysis.RunSuite(analyzers, pkgs, fset)
	if err != nil {
		t.Fatalf("suite: %v", err)
	}
	checkWants(t, fset, pkgs, diags)
}

type fixtureLoader struct {
	root   string
	fset   *token.FileSet
	std    types.Importer
	pkgs   map[string]*types.Package
	loaded map[string]*analysis.Package
}

// Import implements types.Importer over the fixture tree with a std
// fallback, so fixture packages can import each other by directory name.
func (l *fixtureLoader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if _, err := os.Stat(filepath.Join(l.root, path)); err == nil {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Pkg, nil
	}
	return l.std.Import(path)
}

func (l *fixtureLoader) load(name string) (*analysis.Package, error) {
	if l.loaded == nil {
		l.loaded = map[string]*analysis.Package{}
	}
	if p, ok := l.loaded[name]; ok {
		return p, nil
	}
	pkgDir := filepath.Join(l.root, name)
	entries, err := os.ReadDir(pkgDir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	testSrc := map[string][]byte{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		full := filepath.Join(pkgDir, e.Name())
		if strings.HasSuffix(e.Name(), "_test.go") {
			src, err := os.ReadFile(full)
			if err != nil {
				return nil, err
			}
			testSrc[e.Name()] = src
			continue
		}
		f, err := parser.ParseFile(l.fset, full, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("fixture %s: no non-test .go files", name)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(name, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check: %v", err)
	}
	l.pkgs[name] = tpkg
	p := &analysis.Package{
		Path:    name,
		Dir:     pkgDir,
		Files:   files,
		TestSrc: testSrc,
		Pkg:     tpkg,
		Info:    info,
	}
	l.loaded[name] = p
	return p, nil
}

// want is one expectation: a pattern attached to file:line.
type want struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

// patternRE accepts Go-style quoted or backquoted patterns, like x/tools'
// analysistest: // want "re" `re`.
var patternRE = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

func checkWants(t *testing.T, fset *token.FileSet, pkgs []*analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := fset.Position(c.Pos())
					for _, pm := range patternRE.FindAllStringSubmatch(m[1], -1) {
						text := pm[2] // backquoted form, taken verbatim
						if pm[2] == "" {
							text = strings.ReplaceAll(pm[1], `\"`, `"`)
						}
						re, err := regexp.Compile(text)
						if err != nil {
							t.Fatalf("%s: bad want pattern %q: %v", pos, text, err)
						}
						wants = append(wants, &want{file: pos.Filename, line: pos.Line, pattern: re})
					}
				}
			}
		}
	}
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.pattern.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s: [%s] %s", d.Pos, d.Analyzer, d.Message)
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q was not reported", w.file, w.line, w.pattern)
		}
	}
}
