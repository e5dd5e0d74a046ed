// Command oasis-vet is the project's multichecker: it runs the standard `go
// vet` suite and then the three project-specific invariant analyzers from
// internal/analysis (ctxflow, faultsite, atomicstate) over the
// requested packages, exiting non-zero on any finding.  CI runs it over ./...
// as a required step.  The escape gate, which holds //oasis:hotpath functions
// to the allocator and bounds-check calls in their compiled code, runs as
// TestEscapeGateRealTree in internal/analysis; -escape-write regenerates its
// baseline.
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
		runList  = flag.String("run", "", "comma-separated analyzer names to run (default: all)")
		noStd    = flag.Bool("no-std", false, "skip the `go vet` standard-analyzer pass")
		list     = flag.Bool("list", false, "list the suite's analyzers and exit")
		escWrite = flag.Bool("escape-write", false,
			"instead of the analyzers: rewrite "+escapeAllowlist+" to the allocator, fmt and bounds-check calls in the compiled code of every //oasis:hotpath function")
	)
	flag.Parse()

	if *escWrite {
		if err := writeEscapeBaseline(); err != nil {
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

// writeEscapeBaseline rewrites the escape gate's baseline to the tree's
// current hotpath calls.
func writeEscapeBaseline() error {
	calls, err := analysis.CollectHotCalls(".", "repro")
	if err != nil {
		return err
	}
	if err := os.WriteFile(escapeAllowlist, []byte(analysis.FormatAllowlist(calls)), 0o644); err != nil {
		return err
	}
	fmt.Printf("escape gate: wrote %d baseline entries to %s\n", len(calls), escapeAllowlist)
	return nil
}
