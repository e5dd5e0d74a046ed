package analysis

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestAllowlistRoundTrip(t *testing.T) {
	diags := []EscapeDiag{
		{File: "internal/core/kernel.go", Func: "sweepColumnRef", Message: "Found IsInBounds"},
		{File: "internal/core/search.go", Func: "searcher.allocBand", Message: "escapes to heap"},
		{File: "internal/core/store.go", Func: "bucketQueue.push", Message: "moved to heap: e"},
	}
	path := filepath.Join(t.TempDir(), "allow.txt")
	if err := os.WriteFile(path, []byte(FormatAllowlist(diags)), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ParseAllowlist(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, diags) {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v", got, diags)
	}
}

func TestParseAllowlistRejectsMalformed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "allow.txt")
	if err := os.WriteFile(path, []byte("# comment\nno tabs here\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseAllowlist(path); err == nil {
		t.Fatal("malformed line parsed without error")
	}
}

// TestEscapeGateSyntheticEscape demonstrates the gate end to end on a
// throwaway module: a //oasis:hotpath function that leaks a pointer fails
// against an empty allowlist, and passes once the diagnostic is baselined.
func TestEscapeGateSyntheticEscape(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module tmpesc\n\ngo 1.24\n")
	write("hot.go", `package hot

// Leak forces a heap escape inside a hotpath function.
//
//oasis:hotpath
func Leak() *int {
	x := 42
	return &x
}

// Clean allocates nothing.
//
//oasis:hotpath
func Clean(a, b int) int { return a + b }
`)
	write("allow.txt", "# empty baseline\n")

	res, err := RunEscapeGate(dir, "tmpesc", []string{"."}, filepath.Join(dir, "allow.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatalf("gate passed with an unbaselined escape; current=%v", res.Current)
	}
	found := false
	for _, d := range res.New {
		if d.Func == "Leak" && strings.Contains(d.Message, "moved to heap") {
			found = true
		}
		if d.Func == "Clean" {
			t.Errorf("alloc-free hotpath function flagged: %v", d)
		}
	}
	if !found {
		t.Fatalf("synthetic escape in Leak not reported; new=%v", res.New)
	}

	// Baseline the current diagnostics; the gate must then pass.
	write("allow.txt", FormatAllowlist(res.Current))
	res, err = RunEscapeGate(dir, "tmpesc", []string{"."}, filepath.Join(dir, "allow.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("gate failed against its own baseline: new=%v stale=%v", res.New, res.Stale)
	}

	// A baseline entry for a diagnostic the compiler no longer emits is stale.
	write("hot.go", `package hot

// Clean allocates nothing.
//
//oasis:hotpath
func Clean(a, b int) int { return a + b }
`)
	res, err = RunEscapeGate(dir, "tmpesc", []string{"."}, filepath.Join(dir, "allow.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stale) == 0 {
		t.Fatal("removing the escape did not mark the baseline entry stale")
	}
}

// TestEscapeGateRealTree enforces the checked-in baseline over the gated
// packages, the same check CI runs via oasis-vet -escape-gate.
func TestEscapeGateRealTree(t *testing.T) {
	res, err := RunEscapeGate("../..", "repro", EscapeGatePackages, "testdata/escape_allowlist.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.New {
		t.Errorf("new hotpath compiler diagnostic not in baseline: %v", d)
	}
	for _, d := range res.Stale {
		t.Errorf("stale baseline entry (regenerate with oasis-vet -escape-write): %v", d)
	}
	if len(res.Current) == 0 {
		t.Fatal("no hotpath diagnostics collected; is internal/core still annotated?")
	}
}
