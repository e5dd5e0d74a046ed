// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 4), plus ablation benchmarks for its design choices (construction
// algorithm, block size, memory vs disk index, BLAST seeding).  Each benchmark
// prints the reproduced series through testing.B.ReportMetric / b.Log so that
// `go test -bench` output doubles as the experiment record; cmd/oasis-bench
// runs the same experiments at larger scale with full tables.
package repro

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/align"
	"repro/internal/blast"
	"repro/internal/bufferpool"
	"repro/internal/core"
	"repro/internal/diskst"
	"repro/internal/experiments"
	"repro/internal/workload"
	"repro/oasis"
)

// benchLab is built once and shared by every benchmark (building the
// synthetic database and its indexes is expensive relative to a single
// query).
var (
	labOnce sync.Once
	lab     *experiments.Lab
	labMem  *core.MemoryIndex
	labDir  string
	labErr  error
)

func benchLab(b *testing.B) (*experiments.Lab, *core.MemoryIndex) {
	b.Helper()
	labOnce.Do(func() {
		labDir, labErr = os.MkdirTemp("", "oasis-bench-")
		if labErr != nil {
			return
		}
		cfg := experiments.DefaultConfig()
		cfg.TotalResidues = 400_000
		cfg.NumQueries = 24
		cfg.Dir = labDir
		lab, labErr = experiments.NewLab(cfg)
		if labErr != nil {
			return
		}
		labMem, labErr = core.BuildMemoryIndex(lab.DB)
	})
	if labErr != nil {
		b.Fatal(labErr)
	}
	return lab, labMem
}

// --- Section 4.2 table: space utilisation ---------------------------------

func BenchmarkTableSpaceUtilization(b *testing.B) {
	l, _ := benchLab(b)
	var row experiments.SpaceRow
	for i := 0; i < b.N; i++ {
		row = experiments.TableSpace(l)
	}
	b.ReportMetric(row.BytesPerSymbol, "bytes/symbol")
	b.ReportMetric(float64(row.IndexBytes), "index-bytes")
}

// --- Figure 3: query time vs query length (OASIS / BLAST / S-W) -----------

func benchQueries(l *experiments.Lab, maxLen int) []workload.Query {
	var out []workload.Query
	for _, q := range l.Queries {
		if maxLen == 0 || len(q.Residues) <= maxLen {
			out = append(out, q)
		}
	}
	return out
}

// scoredQuery is a workload query with its minScore resolved ahead of time,
// so timed loops measure the search, not per-iteration threshold
// recomputation (Karlin-Altschul solving is not free).
type scoredQuery struct {
	residues []byte
	minScore int
}

// benchScoredQueries precomputes each query's minScore at the given E-value.
func benchScoredQueries(l *experiments.Lab, eValue float64) []scoredQuery {
	qs := benchQueries(l, 0)
	out := make([]scoredQuery, len(qs))
	for i, q := range qs {
		out[i] = scoredQuery{
			residues: q.Residues,
			minScore: l.KA.MinScore(eValue, len(q.Residues), l.DB.TotalResidues()),
		}
	}
	return out
}

func BenchmarkFigure3OASIS(b *testing.B) {
	l, mem := benchLab(b)
	qs := benchScoredQueries(l, l.Config.EValue)
	var st core.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		if _, err := core.SearchAll(mem, q.residues, core.Options{Scheme: l.Scheme, MinScore: q.minScore, Stats: &st}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.ColumnsExpanded)/float64(b.N), "columns/query")
}

func BenchmarkFigure3OASISDisk(b *testing.B) {
	l, _ := benchLab(b)
	pool := bufferpool.New(l.Config.BufferPoolBytes, l.Config.BlockSize)
	idx, err := diskst.Open(l.IndexPath, pool)
	if err != nil {
		b.Fatal(err)
	}
	defer idx.Close()
	qs := benchScoredQueries(l, l.Config.EValue)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		if _, err := core.SearchAll(idx, q.residues, core.Options{Scheme: l.Scheme, MinScore: q.minScore}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3SmithWaterman(b *testing.B) {
	l, _ := benchLab(b)
	qs := benchScoredQueries(l, l.Config.EValue)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		if _, err := align.SearchDatabase(l.DB, q.residues, l.Scheme, align.Options{MinScore: q.minScore}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3BLAST(b *testing.B) {
	l, _ := benchLab(b)
	searcher, err := blast.NewSearcher(l.DB, l.Scheme, blast.Options{TwoHit: true, EValue: l.Config.EValue})
	if err != nil {
		b.Fatal(err)
	}
	qs := benchQueries(l, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		if _, err := searcher.Search(q.Residues, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 4: filtering efficiency (columns expanded) --------------------

func BenchmarkFigure4Filtering(b *testing.B) {
	l, mem := benchLab(b)
	qs := benchScoredQueries(l, l.Config.EValue)
	var oasisCols, swCols float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		var ost core.Stats
		if _, err := core.SearchAll(mem, q.residues, core.Options{Scheme: l.Scheme, MinScore: q.minScore, Stats: &ost}); err != nil {
			b.Fatal(err)
		}
		oasisCols += float64(ost.ColumnsExpanded)
		swCols += float64(l.DB.TotalResidues())
	}
	b.StopTimer()
	if swCols > 0 {
		b.ReportMetric(oasisCols/swCols, "column-fraction")
	}
}

// --- Figure 5: additional matches relative to BLAST -----------------------

func BenchmarkFigure5Accuracy(b *testing.B) {
	l, mem := benchLab(b)
	searcher, err := blast.NewSearcher(l.DB, l.Scheme, blast.Options{TwoHit: true, EValue: l.Config.EValue})
	if err != nil {
		b.Fatal(err)
	}
	qs := benchScoredQueries(l, l.Config.EValue)
	var oasisHits, blastHits float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		oh, err := core.SearchAll(mem, q.residues, core.Options{Scheme: l.Scheme, MinScore: q.minScore})
		if err != nil {
			b.Fatal(err)
		}
		bh, err := searcher.Search(q.residues, nil)
		if err != nil {
			b.Fatal(err)
		}
		oasisHits += float64(len(oh))
		blastHits += float64(len(bh))
	}
	b.StopTimer()
	if blastHits > 0 {
		b.ReportMetric(100*(oasisHits-blastHits)/blastHits, "additional-matches-%")
	}
}

// --- Figure 6: effect of selectivity (E=1 vs E=20000) ---------------------

func BenchmarkFigure6SelectivityE1(b *testing.B) { benchSelectivity(b, 1) }

func BenchmarkFigure6SelectivityE20000(b *testing.B) { benchSelectivity(b, 20000) }

func benchSelectivity(b *testing.B, eValue float64) {
	l, mem := benchLab(b)
	qs := benchScoredQueries(l, eValue)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		if _, err := core.SearchAll(mem, q.residues, core.Options{Scheme: l.Scheme, MinScore: q.minScore}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures 7 and 8: buffer pool size sweep -------------------------------

func BenchmarkFigure7BufferPool(b *testing.B) {
	l, _ := benchLab(b)
	info, err := os.Stat(l.IndexPath)
	if err != nil {
		b.Fatal(err)
	}
	for _, frac := range []float64{0.05, 0.25, 1.0} {
		frac := frac
		b.Run(fmt.Sprintf("pool=%.0f%%", frac*100), func(b *testing.B) {
			poolBytes := int64(float64(info.Size()) * frac)
			pool := bufferpool.New(poolBytes, l.Config.BlockSize)
			idx, err := diskst.Open(l.IndexPath, pool)
			if err != nil {
				b.Fatal(err)
			}
			defer idx.Close()
			qs := benchScoredQueries(l, l.Config.EValue)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				if _, err := core.SearchAll(idx, q.residues, core.Options{Scheme: l.Scheme, MinScore: q.minScore}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			// Figure 8: per-component hit ratios at this pool size (the
			// symbols are resident, outside the pool).
			b.ReportMetric(pool.Stats(idx.InternalFile()).HitRatio(), "hit-internal")
			b.ReportMetric(pool.Stats(idx.LeavesFile()).HitRatio(), "hit-leaves")
		})
	}
}

// --- Figure 9: online behaviour --------------------------------------------

func BenchmarkFigure9OnlineFirstResult(b *testing.B) {
	l, mem := benchLab(b)
	// Pick the workload query closest to the paper's 13-residue example.
	q := l.Queries[0].Residues
	for _, c := range l.Queries {
		if abs(len(c.Residues)-13) < abs(len(q)-13) {
			q = c.Residues
		}
	}
	minScore := l.KA.MinScore(l.Config.EValue, len(q), l.DB.TotalResidues())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Online mode: stop after the first (strongest) result.
		err := core.Search(mem, q, core.Options{Scheme: l.Scheme, MinScore: minScore}, func(core.Hit) bool { return false })
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9OnlineAllResults(b *testing.B) {
	l, mem := benchLab(b)
	q := l.Queries[0].Residues
	for _, c := range l.Queries {
		if abs(len(c.Residues)-13) < abs(len(q)-13) {
			q = c.Residues
		}
	}
	minScore := l.KA.MinScore(l.Config.EValue, len(q), l.DB.TotalResidues())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SearchAll(mem, q, core.Options{Scheme: l.Scheme, MinScore: minScore}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ---------------------------------------------------------------

// BenchmarkAblationBlockSize measures the effect of the index block size on
// query time (paper Section 3.4 uses 2 KB blocks).
func BenchmarkAblationBlockSize(b *testing.B) {
	l, _ := benchLab(b)
	for _, bs := range []int{512, 2048, 8192} {
		bs := bs
		b.Run(fmt.Sprintf("block=%d", bs), func(b *testing.B) {
			path := filepath.Join(labDir, fmt.Sprintf("abl-%d.oasis", bs))
			if _, err := os.Stat(path); err != nil {
				if _, err := diskst.Build(path, l.DB, diskst.BuildOptions{BlockSize: bs}); err != nil {
					b.Fatal(err)
				}
			}
			pool := bufferpool.New(l.Config.BufferPoolBytes, bs)
			idx, err := diskst.Open(path, pool)
			if err != nil {
				b.Fatal(err)
			}
			defer idx.Close()
			qs := benchScoredQueries(l, l.Config.EValue)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				if _, err := core.SearchAll(idx, q.residues, core.Options{Scheme: l.Scheme, MinScore: q.minScore}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMemoryVsDisk compares the in-memory and disk-resident
// index implementations on the same queries.
func BenchmarkAblationMemoryVsDisk(b *testing.B) {
	l, mem := benchLab(b)
	pool := bufferpool.New(l.Config.BufferPoolBytes, l.Config.BlockSize)
	disk, err := diskst.Open(l.IndexPath, pool)
	if err != nil {
		b.Fatal(err)
	}
	defer disk.Close()
	for name, idx := range map[string]core.Index{"memory": mem, "disk": disk} {
		idx := idx
		b.Run(name, func(b *testing.B) {
			qs := benchScoredQueries(l, l.Config.EValue)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				if _, err := core.SearchAll(idx, q.residues, core.Options{Scheme: l.Scheme, MinScore: q.minScore}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBLASTTwoHit compares the one-hit and two-hit seeding
// heuristics of the BLAST baseline.
func BenchmarkAblationBLASTTwoHit(b *testing.B) {
	l, _ := benchLab(b)
	for name, twoHit := range map[string]bool{"one-hit": false, "two-hit": true} {
		twoHit := twoHit
		b.Run(name, func(b *testing.B) {
			searcher, err := blast.NewSearcher(l.DB, l.Scheme, blast.Options{TwoHit: twoHit, EValue: l.Config.EValue})
			if err != nil {
				b.Fatal(err)
			}
			qs := benchQueries(l, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				if _, err := searcher.Search(q.Residues, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Public API ---------------------------------------------------------------

// BenchmarkPublicAPISearch exercises the public oasis facade end to end
// (what a downstream user pays per query): a one-shard index directory served
// by OpenEngine.  Index build and option assembly are hoisted out of the timed
// loop: rebuilding SearchOptions per iteration re-solves the Karlin-Altschul
// threshold and pollutes ns/op.
func BenchmarkPublicAPISearch(b *testing.B) {
	l, _ := benchLab(b)
	dir := filepath.Join(b.TempDir(), "bench.idx")
	if _, _, err := oasis.BuildShardedDiskIndex(dir, l.DB, oasis.ShardedIndexBuildOptions{BlockSize: l.Config.BlockSize, Shards: 1}); err != nil {
		b.Fatal(err)
	}
	eng, err := oasis.OpenEngine(dir, oasis.EngineOptions{PoolBytes: l.Config.BufferPoolBytes})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	scheme := l.Scheme
	qs := benchQueries(l, 0)
	opts := make([]oasis.SearchOptions, len(qs))
	for i, q := range qs {
		o, err := oasis.NewSearchOptions(scheme, l.DB, q.Residues, oasis.WithEValue(l.Config.EValue))
		if err != nil {
			b.Fatal(err)
		}
		opts[i] = o
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		if _, err := eng.SearchAll(context.Background(), q.Residues, opts[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
