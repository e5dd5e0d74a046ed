// Command oasis-vet is the project's multichecker: it runs the standard `go
// vet` suite and then the five project-specific invariant analyzers from
// internal/analysis (hotpathalloc, ctxflow, cachekey, faultsite, atomicstate)
// over the requested packages, exiting non-zero on any finding.  CI runs it
// over ./... as a required step.  It also hosts the compiler escape gate,
// the check of what the compiler decided where hotpathalloc checks what the
// source says.
//
// Usage:
//
//	go run ./cmd/oasis-vet [flags] [packages]   (default ./...)
//
// Flags:
//
//	-run list       comma-separated analyzer names to run (default all)
//	-no-std         skip the `go vet` standard-analyzer pass
//	-list           print the suite's analyzers and exit
//	-escape-gate    run the escape gate instead of the analyzers
//	-escape-write   regenerate the escape gate's baseline instead
//
// See the internal/analysis package documentation for what each analyzer
// enforces and how to annotate justified exceptions.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

// escapeAllowlist is the escape gate's checked-in baseline, relative to the
// module root.
const escapeAllowlist = "internal/analysis/testdata/escape_allowlist.txt"

func main() {
	var (
		runList = flag.String("run", "", "comma-separated analyzer names to run (default: all)")
		noStd   = flag.Bool("no-std", false, "skip the `go vet` standard-analyzer pass")
		list    = flag.Bool("list", false, "list the suite's analyzers and exit")
		escGate = flag.Bool("escape-gate", false,
			"instead of the analyzers: recompile the gated packages (analysis.EscapeGatePackages) with -gcflags='-m -d=ssa/check_bce/debug=1' and fail if a //oasis:hotpath function gained a heap escape or bounds check not in "+escapeAllowlist)
		escWrite = flag.Bool("escape-write", false,
			"instead of the analyzers: rewrite "+escapeAllowlist+" to the current compiler diagnostics")
	)
	flag.Parse()

	if *escGate || *escWrite {
		if err := runEscapeGate(*escWrite); err != nil {
			fmt.Fprintln(os.Stderr, "oasis-vet:", err)
			os.Exit(1)
		}
		return
	}

	suite := analysis.Analyzers()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *runList != "" {
		keep := map[string]bool{}
		for _, name := range strings.Split(*runList, ",") {
			keep[strings.TrimSpace(name)] = true
		}
		var filtered []*analysis.Analyzer
		for _, a := range suite {
			if keep[a.Name] {
				filtered = append(filtered, a)
				delete(keep, a.Name)
			}
		}
		for name := range keep {
			fmt.Fprintf(os.Stderr, "oasis-vet: unknown analyzer %q\n", name)
			os.Exit(2)
		}
		suite = filtered
	}
	// Feed the faultsite analyzer the CI reference text: workflow files and
	// ci/ scripts count as failpoint exercise (OASIS_FAILPOINTS smoke runs).
	for _, a := range suite {
		if a.Name == "faultsite" {
			*a = *analysis.NewFaultSite(ciReferenceText("."))
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	failed := false
	if !*noStd {
		cmd := exec.Command("go", append([]string{"vet"}, patterns...)...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			failed = true
		}
	}

	pkgs, fset, err := analysis.LoadModule(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "oasis-vet:", err)
		os.Exit(2)
	}
	diags, err := analysis.RunSuite(suite, pkgs, fset)
	if err != nil {
		fmt.Fprintln(os.Stderr, "oasis-vet:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if failed || len(diags) > 0 {
		os.Exit(1)
	}
}

// ciReferenceText gathers the contents of CI workflow and script files under
// the module root for faultsite's test-or-CI reference check.
func ciReferenceText(root string) map[string]string {
	refs := map[string]string{}
	for _, glob := range []string{
		filepath.Join(root, ".github", "workflows", "*"),
		filepath.Join(root, "ci", "*"),
	} {
		matches, _ := filepath.Glob(glob)
		for _, m := range matches {
			if b, err := os.ReadFile(m); err == nil {
				refs[m] = string(b)
			}
		}
	}
	return refs
}

// runEscapeGate runs the compiler-output escape gate over the gated packages.
// With write=true the baseline is regenerated instead of enforced.
func runEscapeGate(write bool) error {
	const modulePath = "repro"
	if write {
		diags, err := analysis.CollectEscapeDiags(".", modulePath, analysis.EscapeGatePackages)
		if err != nil {
			return err
		}
		if err := os.WriteFile(escapeAllowlist, []byte(analysis.FormatAllowlist(diags)), 0o644); err != nil {
			return err
		}
		fmt.Printf("escape-gate: wrote %d baseline entries to %s\n", len(diags), escapeAllowlist)
		return nil
	}
	res, err := analysis.RunEscapeGate(".", modulePath, analysis.EscapeGatePackages, escapeAllowlist)
	if err != nil {
		return err
	}
	for _, d := range res.New {
		fmt.Fprintf(os.Stderr, "escape-gate: NEW: %s (not in %s)\n", d, escapeAllowlist)
	}
	for _, d := range res.Stale {
		fmt.Fprintf(os.Stderr, "escape-gate: STALE: %s (in %s but no longer produced; regenerate with -escape-write)\n", d, escapeAllowlist)
	}
	if !res.OK() {
		return fmt.Errorf("escape gate failed: %d new, %d stale (baseline %s)", len(res.New), len(res.Stale), escapeAllowlist)
	}
	fmt.Printf("escape-gate: OK (%d baseline diagnostics in //oasis:hotpath functions)\n", len(res.Current))
	return nil
}
