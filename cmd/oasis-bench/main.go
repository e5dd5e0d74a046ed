// Command oasis-bench regenerates every table and figure of the paper's
// evaluation on the synthetic workload (see DESIGN.md Section 6 for the
// experiment index), plus the repo's own performance experiments: the
// sharded parallel engine and the live-band DP kernel ablation.
//
// Each run also emits a machine-readable benchmark report (default
// BENCH_oasis.json) with per-measurement ns/op and the paper's work
// counters, so the performance trajectory is tracked across changes.
//
//	oasis-bench -exp all -residues 2000000 -queries 100
//	oasis-bench -exp fig7,fig8 -residues 4000000
//	oasis-bench -exp fig9 -query DKDGDGCITTKEL
//	oasis-bench -exp sharded,liveband -shards 1,2,4,8 -workers 4
//	oasis-bench -exp batch -shards 4   # warm engine vs per-query setup
//	oasis-bench -exp disk -shards 1,4  # per-shard disk indexes + buffer pools
//	                                   # vs in-memory shards (cold-open, hit rates)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/analysis"
	"repro/internal/experiments"
	"repro/internal/seq"
)

func main() {
	var (
		exps         = flag.String("exp", "all", "comma-separated experiments: space,fig3,fig4,fig5,fig6,fig7,fig8,fig9,sharded,liveband,batch,disk,cache,incremental,distributed or all")
		residues     = flag.Int64("residues", 400_000, "approximate synthetic database size in residues")
		queries      = flag.Int("queries", 60, "number of motif queries")
		eValue       = flag.Float64("evalue", 20000, "selectivity (E-value)")
		matrix       = flag.String("matrix", "PAM30", "substitution matrix")
		gap          = flag.Int("gap", -10, "linear gap penalty")
		block        = flag.Int("block", 2048, "index block size")
		poolMB       = flag.Int64("pool", 64, "buffer pool size in MB for the non-sweep experiments")
		seed         = flag.Int64("seed", 1309, "workload seed")
		queryStr     = flag.String("query", "", "explicit query for fig9 (defaults to a ~13-residue workload query)")
		dir          = flag.String("dir", "", "directory for index files (default: temp dir, removed afterwards)")
		shards       = flag.String("shards", "1,2,4,8", "comma-separated shard counts for -exp sharded")
		workers      = flag.Int("workers", 0, "worker-pool bound for the sharded engine (0 = one per shard)")
		jsonPath     = flag.String("json", "BENCH_oasis.json", "machine-readable benchmark report path (empty = skip)")
		prefixBudget = flag.Float64("prefix-budget", 0,
			"fail -exp sharded when prefix-partitioned ColumnsExpanded exceeds this ratio of the 1-shard baseline (0 = no check; CI uses 1.05)")
		cacheHitFloor = flag.Float64("cache-hit-floor", 0,
			"fail -exp cache when the repeated-query streams' cache hit rate falls below this (0 = no check; CI uses 0.3)")
		noSteal = flag.Bool("no-steal", false,
			"disable work stealing between prefix shards in -exp sharded (scheduling ablation)")
		bandGate = flag.Float64("band-gate", 0,
			"fail -exp liveband when the band kernel's ns/op exceeds this ratio of the recorded baseline (0 = no check; CI uses 1.10)")
		bandBaseline = flag.String("band-baseline", "BENCH_oasis.json",
			"baseline benchmark report the -band-gate check compares against")
		escapeGate = flag.Bool("escape-gate", false,
			"recompile the gated packages (internal/core, internal/ndjson) with -gcflags='-m -d=ssa/check_bce/debug=1' and fail if a //oasis:hotpath function gained a heap escape or bounds check not in -escape-allowlist")
		escapeWrite = flag.Bool("escape-write", false,
			"with -escape-gate: rewrite the allowlist to the current diagnostics instead of failing")
		escapeAllowlist = flag.String("escape-allowlist", "internal/analysis/testdata/escape_allowlist.txt",
			"escape-gate baseline file (relative to the module root)")
	)
	flag.Parse()

	if *escapeGate {
		if err := runEscapeGate(*escapeAllowlist, *escapeWrite); err != nil {
			fmt.Fprintln(os.Stderr, "oasis-bench:", err)
			os.Exit(1)
		}
		if *exps == "none" {
			return
		}
	}

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
	shardCounts, err := parseShardCounts(*shards)
	if err == nil {
		err = run(cfg, *exps, *queryStr, shardCounts, *workers, *jsonPath, gates{
			prefixBudget:  *prefixBudget,
			cacheHitFloor: *cacheHitFloor,
			noSteal:       *noSteal,
			bandGate:      *bandGate,
			bandBaseline:  *bandBaseline,
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "oasis-bench:", err)
		os.Exit(1)
	}
}

// runEscapeGate runs the compiler-output escape gate over the gated packages:
// the hotpathalloc analyzer checks what the source says, this checks what the
// compiler actually decided.  With write=true the baseline is regenerated
// instead of enforced.
func runEscapeGate(allowlist string, write bool) error {
	const modulePath = "repro"
	if write {
		diags, err := analysis.CollectEscapeDiags(".", modulePath, analysis.EscapeGatePackages)
		if err != nil {
			return err
		}
		if err := os.WriteFile(allowlist, []byte(analysis.FormatAllowlist(diags)), 0o644); err != nil {
			return err
		}
		fmt.Printf("escape-gate: wrote %d baseline entries to %s\n", len(diags), allowlist)
		return nil
	}
	res, err := analysis.RunEscapeGate(".", modulePath, analysis.EscapeGatePackages, allowlist)
	if err != nil {
		return err
	}
	for _, d := range res.New {
		fmt.Fprintf(os.Stderr, "escape-gate: NEW: %s (not in %s)\n", d, allowlist)
	}
	for _, d := range res.Stale {
		fmt.Fprintf(os.Stderr, "escape-gate: STALE: %s (in %s but no longer produced; regenerate with -escape-write)\n", d, allowlist)
	}
	if !res.OK() {
		return fmt.Errorf("escape gate failed: %d new, %d stale (baseline %s)", len(res.New), len(res.Stale), allowlist)
	}
	fmt.Printf("escape-gate: OK (%d baseline diagnostics in //oasis:hotpath functions)\n", len(res.Current))
	return nil
}

func parseShardCounts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("invalid shard count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no shard counts in %q", s)
	}
	return out, nil
}

// gates bundles the experiment toggles and CI regression checks a bench run
// may enforce on top of measuring.
type gates struct {
	prefixBudget  float64
	cacheHitFloor float64
	noSteal       bool
	bandGate      float64
	bandBaseline  string
}

func run(cfg experiments.Config, exps, queryStr string, shardCounts []int, workers int, jsonPath string, g gates) error {
	selected := map[string]bool{}
	for _, e := range strings.Split(exps, ",") {
		selected[strings.TrimSpace(strings.ToLower(e))] = true
	}
	want := func(name string) bool { return selected["all"] || selected[name] }
	if g.bandGate > 0 && !want("liveband") {
		return fmt.Errorf("-band-gate requires the liveband experiment (add liveband to -exp)")
	}

	fmt.Println("setting up workload and building the disk index ...")
	lab, err := experiments.NewLab(cfg)
	if err != nil {
		return err
	}
	defer lab.Close()
	fmt.Println(lab.Summary())
	fmt.Println()

	report := experiments.BenchReport{
		Residues:   lab.DB.TotalResidues(),
		NumQueries: len(lab.Queries),
		EValue:     lab.Config.EValue,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}

	out := os.Stdout
	if want("space") {
		experiments.RenderSpace(out, experiments.TableSpace(lab))
	}
	if want("fig3") {
		rows, err := experiments.Figure3(lab)
		if err != nil {
			return err
		}
		experiments.RenderFigure3(out, rows)
		var total float64
		for _, r := range rows {
			total += float64(r.OASISTime) * float64(r.NumQueries)
		}
		report.Records = append(report.Records, experiments.BenchRecord{
			Name: "fig3/oasis-mem", NsPerOp: total / float64(len(lab.Queries)),
		})
	}
	if want("fig4") {
		rows, err := experiments.Figure4(lab)
		if err != nil {
			return err
		}
		experiments.RenderFigure4(out, rows)
	}
	if want("fig5") {
		rows, err := experiments.Figure5(lab)
		if err != nil {
			return err
		}
		experiments.RenderFigure5(out, rows)
	}
	if want("fig6") {
		rows, err := experiments.Figure6(lab)
		if err != nil {
			return err
		}
		experiments.RenderFigure6(out, rows, cfg.EValue)
	}
	if want("fig7") {
		rows, err := experiments.Figure7(lab, nil)
		if err != nil {
			return err
		}
		experiments.RenderFigure7(out, rows)
	}
	if want("fig8") {
		rows, err := experiments.Figure8(lab, nil)
		if err != nil {
			return err
		}
		experiments.RenderFigure8(out, rows)
	}
	if want("fig9") {
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
	if want("sharded") {
		rows, err := experiments.Sharded(lab, shardCounts, workers, g.noSteal)
		if err != nil {
			return err
		}
		experiments.RenderSharded(out, rows)
		for _, r := range rows {
			name := fmt.Sprintf("sharded/shards=%d", r.Shards)
			if r.Mode == "prefix" {
				name = fmt.Sprintf("sharded/prefix/shards=%d", r.Shards)
			}
			report.Records = append(report.Records, experiments.BenchRecord{
				Name:            name,
				NsPerOp:         float64(r.QueryTime),
				ColumnsExpanded: r.ColumnsExpanded,
				CellsComputed:   r.CellsComputed,
				Extra: map[string]float64{
					"speedup": r.Speedup,
					"workers": float64(r.Workers),
					"hits":    float64(r.Hits),
					"steals":  float64(r.Steals),
				},
			})
		}
		if g.prefixBudget > 0 {
			if err := experiments.CheckPrefixColumns(rows, g.prefixBudget); err != nil {
				return err
			}
			fmt.Printf("prefix-sharded ColumnsExpanded within %.2fx of the 1-shard baseline\n", g.prefixBudget)
		}
	}
	if want("liveband") {
		row, err := experiments.LiveBand(lab)
		if err != nil {
			return err
		}
		experiments.RenderLiveBand(out, row)
		refOverBand := 0.0
		if row.BandTime > 0 {
			refOverBand = float64(row.RefTime) / float64(row.BandTime)
		}
		report.Records = append(report.Records,
			experiments.BenchRecord{
				Name:            "liveband/band",
				NsPerOp:         float64(row.BandTime),
				ColumnsExpanded: row.Columns,
				CellsComputed:   row.BandCells,
				Extra: map[string]float64{
					"cell_fraction": row.CellFraction,
					"hits":          float64(row.Hits),
					"ref_over_band": refOverBand,
				},
			},
			experiments.BenchRecord{
				Name:            "liveband/ref-kernel",
				NsPerOp:         float64(row.RefTime),
				ColumnsExpanded: row.Columns,
				CellsComputed:   row.BandCells,
			},
			experiments.BenchRecord{
				Name:            "liveband/full-sweep",
				NsPerOp:         float64(row.FullTime),
				ColumnsExpanded: row.Columns,
				CellsComputed:   row.FullCells,
			})
		if g.bandGate > 0 {
			if err := experiments.CheckBandGate(row, g.bandBaseline, g.bandGate); err != nil {
				return err
			}
			fmt.Printf("live-band kernel within %.2fx of the %s baseline\n", g.bandGate, g.bandBaseline)
		}
	}
	if want("batch") {
		// The batch experiment measures what the warm engine amortises, at
		// the first configured shard count (use -shards to vary).
		rows, err := experiments.Batch(lab, shardCounts[0], workers, 0)
		if err != nil {
			return err
		}
		experiments.RenderBatch(out, rows)
		for _, r := range rows {
			report.Records = append(report.Records, experiments.BenchRecord{
				Name:    "batch/" + r.Mode,
				NsPerOp: float64(r.QueryTime),
				Extra: map[string]float64{
					"queries_per_sec": r.QueriesPerSec,
					"speedup":         r.Speedup,
					"hits":            float64(r.Hits),
					"build_ns":        float64(r.BuildTime),
					"queries":         float64(r.Queries),
				},
			})
		}
	}
	if want("cache") {
		// The cross-query result cache on repeated-query streams: hit rate
		// and throughput versus the duplicate fraction, at the first
		// configured shard count.
		rows, err := experiments.Cache(lab, shardCounts[0], workers, 0, 0, []int{0, 50, 80, 95})
		if err != nil {
			return err
		}
		experiments.RenderCache(out, rows)
		for _, r := range rows {
			name := fmt.Sprintf("cache/dup=%d", r.DupPercent)
			if r.Mode == "cache-off" {
				name = fmt.Sprintf("cache/off/dup=%d", r.DupPercent)
			}
			report.Records = append(report.Records, experiments.BenchRecord{
				Name:    name,
				NsPerOp: float64(r.QueryTime),
				Extra: map[string]float64{
					"queries_per_sec": r.QueriesPerSec,
					"speedup":         r.Speedup,
					"hit_rate":        r.HitRate,
					"cache_hits":      float64(r.CacheHits),
					"queries":         float64(r.Queries),
					"unique":          float64(r.Unique),
					"hits":            float64(r.Hits),
				},
			})
		}
		if g.cacheHitFloor > 0 {
			if err := experiments.CheckCacheHits(rows, g.cacheHitFloor); err != nil {
				return err
			}
			fmt.Printf("repeated-query cache hit rate at or above %.2f\n", g.cacheHitFloor)
		}
	}
	if want("disk") {
		// Disk-backed sharded serving vs in-memory shards at matched shard
		// counts, per-shard buffer pools sized by -pool.
		rows, err := experiments.Disk(lab, shardCounts, workers, cfg.BufferPoolBytes)
		if err != nil {
			return err
		}
		experiments.RenderDisk(out, rows)
		for _, r := range rows {
			name := fmt.Sprintf("disk/shards=%d", r.Shards)
			if r.Mode == "memory" {
				name = fmt.Sprintf("disk/memory/shards=%d", r.Shards)
			}
			rec := experiments.BenchRecord{
				Name:    name,
				NsPerOp: float64(r.QueryTime),
				Extra: map[string]float64{
					"queries_per_sec": r.QueriesPerSec,
					"cold_open_ns":    float64(r.ColdOpen),
					"setup_ns":        float64(r.Setup),
					"hits":            float64(r.Hits),
					"workers":         float64(r.Workers),
				},
			}
			if r.Mode == "disk" {
				rec.Extra["pool_hit_ratio"] = r.HitRatio
				rec.Extra["warm_open_ns"] = float64(r.WarmOpen)
			}
			report.Records = append(report.Records, rec)
		}
	}
	if want("incremental") {
		// The mutable layer: sustained insert rate and write-to-searchable
		// staleness while the Figure-4 query mix is served concurrently, at
		// the first configured shard count.
		row, err := experiments.Incremental(lab, shardCounts[0], workers, 0)
		if err != nil {
			return err
		}
		experiments.RenderIncremental(out, row)
		report.Records = append(report.Records, experiments.BenchRecord{
			Name:    "incremental/insert",
			NsPerOp: float64(row.InsertTime),
			Extra: map[string]float64{
				"inserts_per_sec":   row.InsertsPerSec,
				"staleness_mean_ns": float64(row.StalenessMean),
				"staleness_max_ns":  float64(row.StalenessMax),
				"staleness_samples": float64(row.Samples),
				"queries_per_sec":   row.QueriesPerSec,
				"queries_served":    float64(row.QueriesServed),
				"inserted":          float64(row.InsertedSequences),
				"compact_ns":        float64(row.CompactTime),
				"generation":        float64(row.Generation),
			},
		})
	}
	if want("distributed") {
		// The coordinator fan-out over real loopback shard servers, with a
		// replica killed mid-run: throughput plus the failover/hedge counters
		// that show the replica sets absorbing the fault.
		res, err := experiments.Distributed(lab, 2, 2)
		if err != nil {
			return err
		}
		experiments.RenderDistributed(out, res)
		report.Records = append(report.Records, experiments.BenchRecord{
			Name:    "distributed/fanout",
			NsPerOp: float64(res.Elapsed) / float64(res.NumQueries),
			Extra: map[string]float64{
				"queries_per_sec":  res.QueriesPerSec,
				"slices":           float64(res.Slices),
				"replicas":         float64(res.Replicas),
				"failovers":        float64(res.Remote.Failovers),
				"retries":          float64(res.Remote.Retries),
				"attempts":         float64(res.Remote.Attempts),
				"hedges":           float64(res.Remote.Hedges),
				"hedge_win_rate":   res.HedgeWinRate,
				"degraded_queries": float64(res.DegradedQueries),
				"hits":             float64(res.TotalHits),
			},
		})
	}
	if jsonPath != "" && len(report.Records) > 0 {
		if err := experiments.WriteBenchJSON(jsonPath, report); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d records)\n", jsonPath, len(report.Records))
	}
	return nil
}
