package analysis

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// The escape gate closes the loop the hotpathalloc analyzer cannot: source
// syntax says what MIGHT allocate, but only the compiler knows what DOES.
// It rebuilds each gated package with -gcflags='-m -d=ssa/check_bce/debug=1',
// keeps the escape-analysis and bounds-check diagnostics that land inside
// //oasis:hotpath functions, normalizes them to (file, function, message) —
// line numbers are deliberately dropped so unrelated edits above a function
// do not churn the baseline — and diffs the set against a checked-in
// allowlist.  A new escape or a new bounds check in a hot function fails CI;
// a stale allowlist entry fails too, so the baseline always matches the tree.

// EscapeGatePackages are the packages (directories relative to the module
// root) whose //oasis:hotpath functions the gate holds to the baseline: the
// search kernel, the per-event wire path every streamed hit crosses, and the
// per-request path of a disk search (pool hit, record decode, edge label,
// position lookup).
var EscapeGatePackages = []string{"internal/core", "internal/ndjson", "internal/bufferpool", "internal/diskst", "internal/seq"}

// EscapeDiag is one normalized compiler diagnostic inside a hotpath function.
type EscapeDiag struct {
	File    string // module-relative path as printed by the compiler
	Func    string // enclosing //oasis:hotpath function ("recv.name" for methods)
	Message string // normalized compiler message
}

// Key is the canonical allowlist form: file<TAB>func<TAB>message.
func (d EscapeDiag) Key() string {
	return d.File + "\t" + d.Func + "\t" + d.Message
}

func (d EscapeDiag) String() string {
	return fmt.Sprintf("%s: %s: %s", d.File, d.Func, d.Message)
}

// escapeMsgRE matches the diagnostic classes the gate tracks.  "escapes to
// heap" and "moved to heap" are escape-analysis verdicts; "Found IsInBounds"
// and "Found IsSliceInBounds" are bounds checks the compiler could not
// eliminate (-d=ssa/check_bce/debug=1).
var escapeMsgRE = regexp.MustCompile(`escapes to heap|moved to heap|Found Is(Slice)?InBounds`)

// diagLineRE parses the compiler's "path:line:col: message" output lines.
var diagLineRE = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

// normalizeEscapeMsg strips the expression text from escape verdicts so the
// allowlist key survives cosmetic refactors of the allocating expression:
// "make([]int32, width, 1<<class) escapes to heap" -> "escapes to heap".
func normalizeEscapeMsg(msg string) string {
	if i := strings.Index(msg, "escapes to heap"); i >= 0 {
		return "escapes to heap"
	}
	if strings.HasPrefix(msg, "moved to heap:") {
		return strings.TrimSpace(msg) // keep the variable name; it is the identity
	}
	return strings.TrimSpace(msg)
}

// FuncRange is the source span of one //oasis:hotpath function.
type FuncRange struct {
	File       string // path relative to the module directory, slash-separated
	Name       string // "recv.name" for methods
	Start, End int
}

// HotPathRanges parses every .go file of the package directories (relative to
// moduleDir) and returns the line ranges of //oasis:hotpath functions.
func HotPathRanges(moduleDir string, pkgDirs ...string) ([]FuncRange, error) {
	var out []FuncRange
	fset := token.NewFileSet()
	for _, dir := range pkgDirs {
		abs := filepath.Join(moduleDir, dir)
		entries, err := os.ReadDir(abs)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(abs, name)
			file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			rel := filepath.ToSlash(filepath.Join(dir, name))
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || !isHotPath(fn) {
					continue
				}
				out = append(out, FuncRange{
					File:  rel,
					Name:  funcDisplayName(fn),
					Start: fset.Position(fn.Pos()).Line,
					End:   fset.Position(fn.End()).Line,
				})
			}
		}
	}
	return out, nil
}

// funcDisplayName renders "name" for functions and "Recv.name" for methods.
func funcDisplayName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}

// CollectEscapeDiags compiles the packages with escape-analysis and
// bounds-check diagnostics enabled and returns the normalized diagnostics
// that fall inside //oasis:hotpath functions, sorted.  modulePath is the
// module's import path; pkgDirs are package directories relative to
// moduleDir.
func CollectEscapeDiags(moduleDir, modulePath string, pkgDirs []string) ([]EscapeDiag, error) {
	seen := map[string]bool{}
	var diags []EscapeDiag
	for _, pkgDir := range pkgDirs {
		ranges, err := HotPathRanges(moduleDir, pkgDir)
		if err != nil {
			return nil, err
		}
		importPath := path.Join(modulePath, filepath.ToSlash(pkgDir))
		cmd := exec.Command("go", "build",
			"-gcflags="+importPath+"=-m=1 -d=ssa/check_bce/debug=1",
			"./"+filepath.ToSlash(pkgDir))
		cmd.Dir = moduleDir
		out, err := cmd.CombinedOutput()
		// The compiler prints diagnostics to stderr and go build exits 0 on
		// success; a non-zero exit means the package does not compile.
		if err != nil {
			return nil, fmt.Errorf("go build %s: %v\n%s", importPath, err, out)
		}
		for _, line := range strings.Split(string(out), "\n") {
			m := diagLineRE.FindStringSubmatch(strings.TrimSpace(line))
			if m == nil || !escapeMsgRE.MatchString(m[4]) {
				continue
			}
			file := filepath.ToSlash(m[1])
			lineNo, _ := strconv.Atoi(m[2])
			fn, ok := enclosingHotPath(ranges, file, lineNo)
			if !ok {
				continue
			}
			d := EscapeDiag{File: file, Func: fn, Message: normalizeEscapeMsg(m[4])}
			if !seen[d.Key()] {
				seen[d.Key()] = true
				diags = append(diags, d)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Key() < diags[j].Key() })
	return diags, nil
}

// enclosingHotPath finds the hotpath function containing file:line, if any.
// Compiler paths may be module-relative or absolute depending on invocation;
// match by path suffix.
func enclosingHotPath(ranges []FuncRange, file string, line int) (string, bool) {
	for _, r := range ranges {
		if line >= r.Start && line <= r.End && strings.HasSuffix(file, r.File) {
			return r.Name, true
		}
	}
	return "", false
}

// ParseAllowlist reads an escape allowlist: one EscapeDiag key per line
// (file<TAB>func<TAB>message), '#' comments and blank lines ignored.
func ParseAllowlist(path string) ([]EscapeDiag, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []EscapeDiag
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.SplitN(sc.Text(), "\t", 3)
		if len(parts) != 3 {
			return nil, fmt.Errorf("%s:%d: want file<TAB>func<TAB>message, got %q", path, lineNo, line)
		}
		out = append(out, EscapeDiag{File: parts[0], Func: parts[1], Message: parts[2]})
	}
	return out, sc.Err()
}

// FormatAllowlist renders diagnostics in the ParseAllowlist file format.
func FormatAllowlist(diags []EscapeDiag) string {
	var b strings.Builder
	b.WriteString("# Escape-gate baseline: compiler escape/bounds-check diagnostics inside\n")
	b.WriteString("# //oasis:hotpath functions that are known and accepted.  Regenerate with\n")
	b.WriteString("#   go run ./cmd/oasis-vet -escape-write\n")
	b.WriteString("# One entry per line: file<TAB>function<TAB>message.\n")
	for _, d := range diags {
		b.WriteString(d.Key())
		b.WriteByte('\n')
	}
	return b.String()
}

// EscapeGateResult is the diff between the tree's current hotpath compiler
// diagnostics and the checked-in allowlist.
type EscapeGateResult struct {
	Current []EscapeDiag
	New     []EscapeDiag // in the tree, not in the allowlist: new escapes — fail
	Stale   []EscapeDiag // in the allowlist, no longer in the tree — fail (regenerate)
}

// OK reports whether the gate passes.
func (r EscapeGateResult) OK() bool { return len(r.New) == 0 && len(r.Stale) == 0 }

// RunEscapeGate diffs the packages' current hotpath diagnostics against the
// allowlist file.
func RunEscapeGate(moduleDir, modulePath string, pkgDirs []string, allowlistPath string) (EscapeGateResult, error) {
	var res EscapeGateResult
	current, err := CollectEscapeDiags(moduleDir, modulePath, pkgDirs)
	if err != nil {
		return res, err
	}
	res.Current = current
	allowed, err := ParseAllowlist(allowlistPath)
	if err != nil {
		return res, err
	}
	allowedSet := map[string]bool{}
	for _, d := range allowed {
		allowedSet[d.Key()] = true
	}
	currentSet := map[string]bool{}
	for _, d := range current {
		currentSet[d.Key()] = true
		if !allowedSet[d.Key()] {
			res.New = append(res.New, d)
		}
	}
	for _, d := range allowed {
		if !currentSet[d.Key()] {
			res.Stale = append(res.Stale, d)
		}
	}
	return res, nil
}
