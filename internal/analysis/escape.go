package analysis

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// The escape gate holds //oasis:hotpath functions to the code the compiler
// emits for them.  It finds every package with a hotpath function, compiles
// those packages with -gcflags=-S, and counts, per hotpath function (its
// closures included), the calls to a runtime allocator, to fmt, and to a
// bounds-check panic.  Function names, not line numbers, identify the counts,
// so unrelated edits do not churn the baseline.  Any count that differs from
// the checked-in baseline fails: a higher one is a new allocation or bounds
// check, a lower one a stale baseline.

// gatedCallRE matches the callees the gate counts: the runtime's allocation
// entry points (make, append growth, new and escaping values, interface
// boxing, maps, map stores that may grow them, channels, go, defer, string
// building and conversion), any fmt function, and the bounds-check panics.
var gatedCallRE = regexp.MustCompile(`^(runtime\.(makeslice\w*|growslice|newobject|mallocgc|convT\w*|makemap\w*|mapassign\w*|makechan|newproc|deferproc\w*|concatstring\w*|stringtoslicebyte|slicebytetostring|panicIndex\w*|panicSlice\w*)|fmt\..+)$`)

// callRE extracts the callee of a direct call from one line of -S output.
var callRE = regexp.MustCompile(`\tCALL\t(\S+)\(SB\)`)

// HotCall counts the calls to one gated callee in the compiled code of one
// hotpath function.
type HotCall struct {
	Pkg    string // package directory relative to the module root
	Func   string // "name", or "Recv.name" for methods
	Callee string // e.g. runtime.growslice, fmt.Sprint, runtime.panicIndex
	Count  int
}

func (c HotCall) key() string { return c.Pkg + "\t" + c.Func + "\t" + c.Callee }

func (c HotCall) String() string {
	return fmt.Sprintf("%s: %s: %d call(s) to %s", c.Pkg, c.Func, c.Count, c.Callee)
}

// hotPathFuncs walks the module for non-test Go files, skipping testdata and
// the directories the go command ignores, and returns the //oasis:hotpath
// function names of each package directory (relative to moduleDir).
func hotPathFuncs(moduleDir string) (map[string][]string, error) {
	out := map[string][]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(moduleDir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != moduleDir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil || !bytes.Contains(src, []byte(DirHotPath)) {
			return err
		}
		file, err := parser.ParseFile(fset, p, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(moduleDir, filepath.Dir(p))
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && isHotPath(fn) {
				out[rel] = append(out[rel], funcDisplayName(fn))
			}
		}
		return nil
	})
	return out, err
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

// CollectHotCalls compiles every package that has a //oasis:hotpath function
// with -gcflags=-S and returns the gated calls in each hotpath function,
// sorted.  modulePath is the module's import path.
func CollectHotCalls(moduleDir, modulePath string) ([]HotCall, error) {
	funcs, err := hotPathFuncs(moduleDir)
	if err != nil {
		return nil, err
	}
	args := []string{"build", "-gcflags=-S"}
	prefixes := map[string]string{} // symbol prefix ("import/path.") -> package dir
	for dir := range funcs {
		args = append(args, "./"+dir)
		prefixes[path.Join(modulePath, dir)+"."] = dir
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = moduleDir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go build -gcflags=-S: %v\n%s", err, out)
	}

	counts := map[HotCall]int{} // Count unset: the key is (Pkg, Func, Callee)
	compiled := map[HotCall]bool{}
	var cur HotCall // the hotpath function whose code is being read; Func "" for none
	for _, line := range strings.Split(string(out), "\n") {
		if sym, _, ok := strings.Cut(line, " STEXT"); ok && !strings.HasPrefix(line, "\t") {
			cur = hotPathOwner(sym, prefixes, funcs)
			compiled[cur] = true
			continue
		}
		if cur.Func == "" {
			continue
		}
		if m := callRE.FindStringSubmatch(line); m != nil && gatedCallRE.MatchString(m[1]) {
			counts[HotCall{Pkg: cur.Pkg, Func: cur.Func, Callee: m[1]}]++
		}
	}
	for dir, names := range funcs {
		for _, name := range names {
			if !compiled[HotCall{Pkg: dir, Func: name}] {
				return nil, fmt.Errorf("%s: hotpath function %s has no compiled code in the -S output (generic functions are not gated)", dir, name)
			}
		}
	}
	calls := make([]HotCall, 0, len(counts))
	for c, n := range counts {
		c.Count = n
		calls = append(calls, c)
	}
	sort.Slice(calls, func(i, j int) bool { return calls[i].key() < calls[j].key() })
	return calls, nil
}

// hotPathOwner maps a compiled symbol ("import/path.(*Recv).name.func1") to
// the hotpath function whose code it is, or the zero HotCall.  A closure
// belongs to the function that declares it.
func hotPathOwner(sym string, prefixes map[string]string, funcs map[string][]string) HotCall {
	for prefix, dir := range prefixes {
		rest, ok := strings.CutPrefix(sym, prefix)
		if !ok {
			continue
		}
		rest = strings.NewReplacer("(*", "", ")", "").Replace(rest)
		for _, name := range funcs[dir] {
			if rest == name || strings.HasPrefix(rest, name+".") {
				return HotCall{Pkg: dir, Func: name}
			}
		}
	}
	return HotCall{}
}

// parseAllowlist reads the escape gate's baseline: one HotCall per line
// (pkg<TAB>func<TAB>callee<TAB>count), '#' comments and blank lines ignored.
func parseAllowlist(path string) ([]HotCall, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []HotCall
	sc := bufio.NewScanner(f)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, "\t")
		var n int
		if len(parts) == 4 {
			n, err = strconv.Atoi(parts[3])
		}
		if len(parts) != 4 || err != nil || n <= 0 {
			return nil, fmt.Errorf("%s:%d: want pkg<TAB>func<TAB>callee<TAB>count, got %q", path, lineNo, line)
		}
		out = append(out, HotCall{Pkg: parts[0], Func: parts[1], Callee: parts[2], Count: n})
	}
	return out, sc.Err()
}

// FormatAllowlist renders calls in the parseAllowlist file format.
func FormatAllowlist(calls []HotCall) string {
	var b strings.Builder
	b.WriteString("# Escape gate baseline: calls to runtime allocators, fmt and bounds-check\n")
	b.WriteString("# panics in the compiled code of //oasis:hotpath functions.  Regenerate with\n")
	b.WriteString("#   go run ./cmd/oasis-vet -escape-write\n")
	b.WriteString("# One entry per line: package<TAB>function<TAB>callee<TAB>count.\n")
	for _, c := range calls {
		fmt.Fprintf(&b, "%s\t%d\n", c.key(), c.Count)
	}
	return b.String()
}

// countDrift is one (function, callee) whose call count in the tree differs
// from the baseline's.
type countDrift struct {
	HotCall      // Count is the tree's
	Baseline int // 0 when the baseline has no entry
}

func (d countDrift) String() string {
	if d.Count > d.Baseline {
		return fmt.Sprintf("%v; the baseline allows %d", d.HotCall, d.Baseline)
	}
	return fmt.Sprintf("%v; the baseline's %d is stale (regenerate with oasis-vet -escape-write)", d.HotCall, d.Baseline)
}

// runEscapeGate compares the tree's hotpath calls with the baseline file and
// returns the current calls and every count that differs.  Any difference
// fails the gate (TestEscapeGateRealTree).
func runEscapeGate(moduleDir, modulePath, allowlistPath string) (current []HotCall, drift []countDrift, err error) {
	current, err = CollectHotCalls(moduleDir, modulePath)
	if err != nil {
		return nil, nil, err
	}
	allowed, err := parseAllowlist(allowlistPath)
	if err != nil {
		return nil, nil, err
	}
	baseline := map[string]HotCall{}
	for _, c := range allowed {
		baseline[c.key()] = c
	}
	for _, c := range current {
		if b := baseline[c.key()]; c.Count != b.Count {
			drift = append(drift, countDrift{HotCall: c, Baseline: b.Count})
		}
		delete(baseline, c.key())
	}
	for _, b := range baseline {
		drift = append(drift, countDrift{HotCall: HotCall{Pkg: b.Pkg, Func: b.Func, Callee: b.Callee}, Baseline: b.Count})
	}
	sort.Slice(drift, func(i, j int) bool { return drift[i].key() < drift[j].key() })
	return current, drift, nil
}
