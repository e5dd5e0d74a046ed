package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// testName matches the name of a test, fuzz target, benchmark or example: the
// prefix followed by an upper-case letter, an underscore or nothing, so prose
// such as "Tests that" is not a name.
var testName = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark|Example)(?:[A-Z_]\w*)?\b`)

// TestDocsNameRealTests keeps the test names the documentation cites real:
// every name README.md quotes in inline code is a function some _test.go file
// declares, and every function whose doc comment begins with such a name is
// that function.  testdata trees are not the project's tests and are skipped.
func TestDocsNameRealTests(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if strings.HasSuffix(path, "_test.go") {
				declared[fn.Name.Name] = true
			}
			if fn.Doc == nil {
				continue
			}
			doc := fn.Doc.Text()
			if lead := testName.FindStringIndex(doc); lead != nil && lead[0] == 0 && doc[:lead[1]] != fn.Name.Name {
				t.Errorf("%s: the doc comment of %s begins with %s", fset.Position(fn.Pos()), fn.Name.Name, doc[:lead[1]])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	// Fenced blocks are shell sessions and layouts, not quoted names.
	prose := regexp.MustCompile("(?s)```.*?```").ReplaceAllString(string(readme), "")
	for _, span := range regexp.MustCompile("`[^`]+`").FindAllString(prose, -1) {
		for _, name := range testName.FindAllString(span, -1) {
			if !declared[name] {
				t.Errorf("README.md quotes %s, which no _test.go file declares", name)
			}
		}
	}
}
