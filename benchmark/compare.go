package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// exactCounts are the per-layer metrics that are counts of deterministic
// single-threaded work: two traced runs of one seed must print the same
// value to the last digit.
var exactCounts = []string{
	"suffixtree.nodes_per_residue",
	"core.columns_per_query", "core.cells_per_query", "core.nodes_pushed_per_query",
	"core.hits_per_query", "core.columns_per_hit", "core.max_queue", "core.max_band_width",
	"diskst.bytes_per_residue", "bufferpool.requests_per_query",
	"shard.seq2_columns_ratio", "shard.prefix2_columns_ratio",
	"remote.events_per_query",
}

func readResults(path string) ([]runResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runResult
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// samples collects one metric's values over the untraced (or traced) runs of
// one workload.
func samples(results []runResult, workload, metric string, traced bool) []float64 {
	var out []float64
	for _, r := range results {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Traced == traced {
			out = append(out, v.Value)
		}
	}
	return out
}

// spread is the interquartile range as a share of the median (0 below two
// samples, where there is no spread to speak of).
func spread(values []float64) float64 {
	if len(values) < 2 || median(values) == 0 {
		return 0
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / median(values)
}

// verdict applies the repository's no-regression rule to one (metric,
// workload) pair: b may be worse than a by at most the bound; when either
// side's run-to-run spread exceeds the bound the pair is unresolved, unless
// every run of b reads better than every run of a.
func verdict(a, b []float64, spec metricSpec) (worse float64, status string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / ma
	}
	if spec.Better == "higher" {
		worse = -worse
	}
	sort.Float64s(a)
	sort.Float64s(b)
	allBetter := b[len(b)-1] < a[0]
	if spec.Better == "higher" {
		allBetter = b[0] > a[len(a)-1]
	}
	switch {
	case allBetter:
		return worse, "ok"
	case max(spread(a), spread(b)) > spec.Bound:
		return worse, "unresolved"
	case worse > spec.Bound:
		return worse, "regressed"
	}
	return worse, "ok"
}

// compareFiles prints, for every end-to-end metric and one workload per row,
// both medians, how much worse b is than a, the bound and the verdict; then
// whether every exact per-layer count repeats across all traced runs.
func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a = %s (%d runs)   b = %s (%d runs)\n", pathA, len(a), pathB, len(b))
	fmt.Fprintf(w, "%-18s %-14s %12s %12s %8s %7s %8s %8s  %s\n",
		"metric", "workload", "median a", "median b", "worse", "bound", "spread a", "spread b", "verdict")
	for _, m := range spec.EndToEnd {
		for _, wl := range spec.Workloads {
			va, vb := samples(a, wl.Name, m.Name, false), samples(b, wl.Name, m.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			worse, status := verdict(va, vb, m)
			fmt.Fprintf(w, "%-18s %-14s %12.4f %12.4f %+7.1f%% %6.0f%% %7.1f%% %7.1f%%  %s\n",
				m.Name, wl.Name, median(va), median(vb), 100*worse, 100*m.Bound, 100*spread(va), 100*spread(vb), status)
		}
	}
	bySeed := map[int64][]runResult{}
	for _, r := range append(a, b...) {
		if r.Traced {
			bySeed[r.Seed] = append(bySeed[r.Seed], r)
		}
	}
	for seed, runs := range bySeed {
		for _, name := range exactCounts {
			status := "identical"
			for _, r := range runs[1:] {
				if r.Metrics[name].Value != runs[0].Metrics[name].Value {
					status = fmt.Sprintf("DIFFERS: %v vs %v", runs[0].Metrics[name].Value, r.Metrics[name].Value)
					break
				}
			}
			fmt.Fprintf(w, "seed %d %-34s %d traced runs  %s\n", seed, name, len(runs), status)
		}
	}
	return nil
}
