// Command oasis-bench regenerates the paper's evaluation on the synthetic
// workload: the Section 4.2 space table and Figures 3-9.  The repository's
// own system numbers (sharding, kernel, cache, disk, write path, coordinator)
// are measured by `go run ./benchmark` instead; see benchmark/README.md.
//
//	oasis-bench -exp all -residues 2000000 -queries 100
//	oasis-bench -exp fig7,fig8 -residues 4000000
//	oasis-bench -exp fig9 -query DKDGDGCITTKEL
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/experiments"
	"repro/internal/seq"
)

// experimentNames lists what -exp accepts besides "all", in output order.
var experimentNames = []string{"space", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"}

func main() {
	var (
		exps     = flag.String("exp", "all", "comma-separated experiments: "+strings.Join(experimentNames, ",")+" or all")
		residues = flag.Int64("residues", 400_000, "approximate synthetic database size in residues")
		queries  = flag.Int("queries", 60, "number of motif queries")
		eValue   = flag.Float64("evalue", 20000, "selectivity (E-value)")
		matrix   = flag.String("matrix", "PAM30", "substitution matrix")
		gap      = flag.Int("gap", -10, "linear gap penalty")
		block    = flag.Int("block", 2048, "index block size")
		poolMB   = flag.Int64("pool", 64, "buffer pool size in MB for the non-sweep experiments")
		seed     = flag.Int64("seed", 1309, "workload seed")
		queryStr = flag.String("query", "", "explicit query for fig9 (defaults to a ~13-residue workload query)")
		dir      = flag.String("dir", "", "directory for index files (default: temp dir, removed afterwards)")
	)
	flag.Parse()

	cfg := experiments.Config{
		TotalResidues:   *residues,
		NumQueries:      *queries,
		EValue:          *eValue,
		MatrixName:      *matrix,
		GapPenalty:      *gap,
		BlockSize:       *block,
		BufferPoolBytes: *poolMB << 20,
		Seed:            *seed,
		Dir:             *dir,
	}
	selected, err := parseExperiments(*exps)
	if err == nil {
		err = run(cfg, selected, *queryStr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "oasis-bench:", err)
		os.Exit(1)
	}
}

// parseExperiments resolves the -exp list to the set of experiments to run.
// An unknown or empty name is an error, so a stale command line fails
// instead of building the lab, running nothing and exiting 0.
func parseExperiments(list string) (map[string]bool, error) {
	selected := map[string]bool{}
	for _, e := range strings.Split(list, ",") {
		name := strings.ToLower(strings.TrimSpace(e))
		if name == "all" {
			for _, n := range experimentNames {
				selected[n] = true
			}
			continue
		}
		if !slices.Contains(experimentNames, name) {
			return nil, fmt.Errorf("unknown experiment %q in -exp (known: %s, all)", name, strings.Join(experimentNames, ", "))
		}
		selected[name] = true
	}
	return selected, nil
}

func run(cfg experiments.Config, want map[string]bool, queryStr string) error {
	fmt.Println("setting up workload and building the disk index ...")
	lab, err := experiments.NewLab(cfg)
	if err != nil {
		return err
	}
	defer lab.Close()
	fmt.Println(lab.Summary())
	fmt.Println()

	out := os.Stdout
	if want["space"] {
		experiments.RenderSpace(out, experiments.TableSpace(lab))
	}
	if want["fig3"] {
		rows, err := experiments.Figure3(lab)
		if err != nil {
			return err
		}
		experiments.RenderFigure3(out, rows)
	}
	if want["fig4"] {
		rows, err := experiments.Figure4(lab)
		if err != nil {
			return err
		}
		experiments.RenderFigure4(out, rows)
	}
	if want["fig5"] {
		rows, err := experiments.Figure5(lab)
		if err != nil {
			return err
		}
		experiments.RenderFigure5(out, rows)
	}
	if want["fig6"] {
		rows, err := experiments.Figure6(lab)
		if err != nil {
			return err
		}
		experiments.RenderFigure6(out, rows, cfg.EValue)
	}
	if want["fig7"] {
		rows, err := experiments.Figure7(lab, nil)
		if err != nil {
			return err
		}
		experiments.RenderFigure7(out, rows)
	}
	if want["fig8"] {
		rows, err := experiments.Figure8(lab, nil)
		if err != nil {
			return err
		}
		experiments.RenderFigure8(out, rows)
	}
	if want["fig9"] {
		var q []byte
		if queryStr != "" {
			q = seq.Protein.MustEncode(queryStr)
		}
		rows, err := experiments.Figure9(lab, q)
		if err != nil {
			return err
		}
		experiments.RenderFigure9(out, rows)
	}
	return nil
}
