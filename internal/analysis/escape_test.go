package analysis

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestAllowlistRoundTrip(t *testing.T) {
	calls := []HotCall{
		{Pkg: "internal/core", Func: "sweepColumn", Callee: "runtime.panicIndex", Count: 7},
		{Pkg: "internal/core", Func: "searcher.allocBand", Callee: "runtime.makeslice", Count: 1},
		{Pkg: "internal/shard", Func: "hitQueue.push", Callee: "runtime.growslice", Count: 1},
	}
	path := filepath.Join(t.TempDir(), "allow.txt")
	if err := os.WriteFile(path, []byte(FormatAllowlist(calls)), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := parseAllowlist(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, calls) {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v", got, calls)
	}
}

func TestParseAllowlistRejectsMalformed(t *testing.T) {
	for _, body := range []string{
		"# comment\nno tabs here\n",
		"internal/core\tf\truntime.growslice\n",
		"internal/core\tf\truntime.growslice\tmany\n",
		"internal/core\tf\truntime.growslice\t0\n",
	} {
		path := filepath.Join(t.TempDir(), "allow.txt")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := parseAllowlist(path); err == nil {
			t.Errorf("malformed baseline %q parsed without error", body)
		}
	}
}

// TestEscapeGateSyntheticEscape runs the gate end to end on a throwaway
// module.  Against an empty baseline it must flag every hotpath function that
// allocates or stores into a map, and only those; a non-escaping &T{} or
// closure stays on the stack and must pass.  Baselined, the tree passes; a
// second make in a function whose first is baselined fails on the count; a
// removed allocation leaves a stale entry, which fails too.
func TestEscapeGateSyntheticEscape(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	allow := filepath.Join(dir, "allow.txt")
	gate := func() ([]HotCall, map[string]countDrift) {
		t.Helper()
		current, drift, err := runEscapeGate(dir, "tmpesc", allow)
		if err != nil {
			t.Fatal(err)
		}
		byFunc := map[string]countDrift{}
		for _, d := range drift {
			byFunc[d.Func+" "+d.Callee] = d
		}
		return current, byFunc
	}
	const header = `package hot

import "fmt"

type pt struct{ x, y int }

//oasis:hotpath
func Leak() *int {
	x := 42
	return &x
}

//oasis:hotpath
func Fresh(n int) int {
	var t []int
	t = append(t, n)
	return t[0]
}

//oasis:hotpath
func Print(n int) string { return fmt.Sprint(n) }

//oasis:hotpath
func Stack(a, b int) int {
	p := &pt{a, b}
	f := func() int { return p.x + p.y }
	return f()
}

var sink []byte

var seen = map[int]bool{}

//oasis:hotpath
func Store(k int) { seen[k] = true }

`
	write("go.mod", "module tmpesc\n\ngo 1.24\n")
	write("hot.go", header+`//oasis:hotpath
func Grow(n int) { sink = make([]byte, n) }
`)
	write("allow.txt", "# empty baseline\n")

	current, drift := gate()
	for _, want := range []string{
		"Leak runtime.newobject",
		"Fresh runtime.growslice",
		"Print fmt.Sprint",
		"Grow runtime.makeslice",
		"Store runtime.mapassign_fast64",
	} {
		if d, ok := drift[want]; !ok || d.Count == 0 || d.Baseline != 0 {
			t.Errorf("%s not flagged against an empty baseline; drift=%v", want, drift)
		}
	}
	for _, c := range current {
		if c.Func == "Stack" {
			t.Errorf("non-escaping &T{} and closure flagged: %v", c)
		}
	}

	// Baseline the current calls; the gate must then pass.
	write("allow.txt", FormatAllowlist(current))
	if _, drift := gate(); len(drift) != 0 {
		t.Fatalf("gate failed against its own baseline: %v", drift)
	}

	// A second make in Grow fails on the count, though makeslice is baselined.
	write("hot.go", header+`//oasis:hotpath
func Grow(n int) { sink = make([]byte, n); sink = append(make([]byte, n+1), sink...) }
`)
	if _, drift := gate(); drift["Grow runtime.makeslice"].Count < 2 {
		t.Fatalf("second make in Grow not flagged; drift=%v", drift)
	}

	// A baseline entry for a call the compiler no longer emits is stale.
	write("hot.go", header+`//oasis:hotpath
func Grow(n int) {}
`)
	if _, drift := gate(); drift["Grow runtime.makeslice"].Baseline != 1 || drift["Grow runtime.makeslice"].Count != 0 {
		t.Fatalf("removing the make did not mark the baseline entry stale; drift=%v", drift)
	}
}

// TestEscapeGateRealTree enforces the checked-in baseline over every package
// with an //oasis:hotpath function.
func TestEscapeGateRealTree(t *testing.T) {
	current, drift, err := runEscapeGate("../..", "repro", "testdata/escape_allowlist.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range drift {
		t.Error(d)
	}
	pkgs := map[string]bool{}
	for _, c := range current {
		pkgs[c.Pkg] = true
	}
	if !pkgs["internal/core"] || !pkgs["internal/shard"] {
		t.Fatalf("no hotpath calls collected in internal/core or internal/shard: %v", current)
	}
}
