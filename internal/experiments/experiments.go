// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 4) on the synthetic SWISS-PROT/ProClass stand-in
// workload: performance versus query length for OASIS, Smith-Waterman and
// the BLAST-style heuristic (Figure 3), filtering efficiency (Figure 4),
// accuracy relative to the heuristic (Figure 5), the effect of selectivity
// (Figure 6), buffer-pool size and per-component hit ratios (Figures 7-8),
// online behaviour (Figure 9), and index space utilisation (the table in
// Section 4.2).
//
// Each experiment returns structured rows so callers (cmd/oasis-bench, the
// benchmarks in the root bench_test.go) can render or assert on them.
package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/align"
	"repro/internal/blast"
	"repro/internal/bufferpool"
	"repro/internal/core"
	"repro/internal/diskst"
	"repro/internal/score"
	"repro/internal/seq"
	"repro/internal/workload"
)

// Config scales the experiment workload.  The defaults reproduce the shape
// of the paper's results at laptop scale; raise TotalResidues towards 4e7 to
// approach the paper's SWISS-PROT-sized runs.
type Config struct {
	// TotalResidues is the approximate synthetic database size in residues
	// (the paper's SWISS-PROT has ~4e7).
	TotalResidues int64
	// NumQueries is the number of motif queries (the paper uses 100).
	NumQueries int
	// EValue is the selectivity for the headline experiments (the paper
	// uses the blastp short-query recommendation E=20000).
	EValue float64
	// MatrixName selects the substitution matrix (default PAM30, as in the
	// paper's protein experiments).
	MatrixName string
	// GapPenalty is the linear gap penalty (negative).
	GapPenalty int
	// BlockSize is the index block size (default 2048).
	BlockSize int
	// BufferPoolBytes is the pool size used by the non-buffer-pool
	// experiments (default: large enough to hold the index, as in the
	// paper's 256 MB default).
	BufferPoolBytes int64
	// Dir is where index files are written (default: a temp directory).
	Dir string
	// Seed drives the synthetic workload.
	Seed int64
}

// DefaultConfig returns a configuration sized for quick local runs.
func DefaultConfig() Config {
	return Config{
		TotalResidues:   400_000,
		NumQueries:      60,
		EValue:          20000,
		MatrixName:      "PAM30",
		GapPenalty:      -10,
		BlockSize:       2048,
		BufferPoolBytes: 64 << 20,
		Seed:            1309,
	}
}

func (c *Config) fillDefaults() {
	d := DefaultConfig()
	if c.TotalResidues <= 0 {
		c.TotalResidues = d.TotalResidues
	}
	if c.NumQueries <= 0 {
		c.NumQueries = d.NumQueries
	}
	if c.EValue <= 0 {
		c.EValue = d.EValue
	}
	if c.MatrixName == "" {
		c.MatrixName = d.MatrixName
	}
	if c.GapPenalty >= 0 {
		c.GapPenalty = d.GapPenalty
	}
	if c.BlockSize <= 0 {
		c.BlockSize = d.BlockSize
	}
	if c.BufferPoolBytes <= 0 {
		c.BufferPoolBytes = d.BufferPoolBytes
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
}

// Lab holds the shared experiment state: the synthetic database, the query
// workload, the disk and in-memory indexes, and the scoring configuration.
//
// The timing experiments report OASIS over the memory-resident index (the
// paper's 512 MB configuration, where the whole structure is cached) and,
// where relevant, over the disk index read through the buffer pool; the
// buffer-pool experiments (Figures 7-8) always use the disk index.
type Lab struct {
	Config    Config
	DB        *seq.Database
	Queries   []workload.Query
	Scheme    score.Scheme
	KA        score.KarlinAltschul
	IndexPath string
	// Mem is the memory-resident index over the same suffix tree.
	Mem *core.MemoryIndex
	// BuildStats describes the written index (space table).
	BuildStats *diskst.BuildStats

	cleanup func()
}

// NewLab generates the workload and builds the disk index.
func NewLab(cfg Config) (*Lab, error) {
	cfg.fillDefaults()
	matrix := score.ByName(cfg.MatrixName)
	if matrix == nil {
		return nil, fmt.Errorf("experiments: unknown matrix %q", cfg.MatrixName)
	}
	scheme, err := score.NewScheme(matrix, cfg.GapPenalty)
	if err != nil {
		return nil, err
	}
	pcfg := workload.DefaultProteinConfig(cfg.TotalResidues)
	pcfg.Seed = cfg.Seed
	db, motifs, err := workload.ProteinDatabase(pcfg)
	if err != nil {
		return nil, err
	}
	qcfg := workload.DefaultQueryConfig(cfg.NumQueries)
	qcfg.Seed = cfg.Seed + 1
	queries, err := workload.MotifQueries(db, motifs, qcfg)
	if err != nil {
		return nil, err
	}
	stats := db.ComputeStats()
	ka, err := score.Params(matrix, stats.Frequencies)
	if err != nil {
		ka, err = score.Params(matrix, nil)
		if err != nil {
			return nil, err
		}
	}
	lab := &Lab{
		Config:  cfg,
		DB:      db,
		Queries: queries,
		Scheme:  scheme,
		KA:      ka,
	}
	dir := cfg.Dir
	cleanup := func() {}
	if dir == "" {
		tmp, err := os.MkdirTemp("", "oasis-exp-")
		if err != nil {
			return nil, err
		}
		dir = tmp
		cleanup = func() { os.RemoveAll(tmp) }
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	lab.cleanup = cleanup
	lab.IndexPath = filepath.Join(dir, "experiment.oasis")
	st, err := diskst.Build(lab.IndexPath, db, diskst.BuildOptions{BlockSize: cfg.BlockSize})
	if err != nil {
		cleanup()
		return nil, err
	}
	lab.BuildStats = st
	lab.Mem, err = core.BuildMemoryIndex(db)
	if err != nil {
		cleanup()
		return nil, err
	}
	return lab, nil
}

// Close removes temporary files created by the lab.
func (l *Lab) Close() {
	if l.cleanup != nil {
		l.cleanup()
	}
}

// openIndex opens the lab's index through a pool of the given size.
func (l *Lab) openIndex(poolBytes int64) (*diskst.Index, *bufferpool.Pool, error) {
	pool := bufferpool.New(poolBytes, l.Config.BlockSize)
	idx, err := diskst.Open(l.IndexPath, pool)
	if err != nil {
		return nil, nil, err
	}
	return idx, pool, nil
}

// minScoreFor converts the configured E-value into the OASIS minScore for a
// query length (paper Equation 3).
func (l *Lab) minScoreFor(eValue float64, queryLen int) int {
	return l.KA.MinScore(eValue, queryLen, l.DB.TotalResidues())
}

// lengthBucket groups measurements by query length.
type lengthBucket struct {
	sum   map[string]float64
	count int
}

type byLength struct {
	buckets map[int]*lengthBucket
}

func newByLength() *byLength { return &byLength{buckets: map[int]*lengthBucket{}} }

func (b *byLength) add(length int, metric string, value float64) {
	bk := b.buckets[length]
	if bk == nil {
		bk = &lengthBucket{sum: map[string]float64{}}
		b.buckets[length] = bk
	}
	bk.sum[metric] += value
}

func (b *byLength) bump(length int) {
	bk := b.buckets[length]
	if bk == nil {
		bk = &lengthBucket{sum: map[string]float64{}}
		b.buckets[length] = bk
	}
	bk.count++
}

func (b *byLength) lengths() []int {
	var out []int
	for l := range b.buckets {
		out = append(out, l)
	}
	sort.Ints(out)
	return out
}

func (b *byLength) mean(length int, metric string) float64 {
	bk := b.buckets[length]
	if bk == nil || bk.count == 0 {
		return 0
	}
	return bk.sum[metric] / float64(bk.count)
}

// Figure3Row is one point of Figure 3: mean query time versus query length
// for the three searchers at E = 20,000.  OASIS is measured both with the
// index memory-resident (the paper's 512 MB setting, where the structure is
// fully cached) and with the disk index read through the buffer pool.
type Figure3Row struct {
	QueryLength   int
	NumQueries    int
	OASISTime     time.Duration // memory-resident index
	OASISDiskTime time.Duration // disk index through the buffer pool
	BLASTTime     time.Duration
	SWTime        time.Duration
}

// Figure3 measures mean query time by query length for OASIS, BLAST
// (heuristic) and Smith-Waterman.
func Figure3(lab *Lab) ([]Figure3Row, error) {
	idx, _, err := lab.openIndex(lab.Config.BufferPoolBytes)
	if err != nil {
		return nil, err
	}
	defer idx.Close()
	bl, err := blast.NewSearcher(lab.DB, lab.Scheme, blast.Options{TwoHit: true, EValue: lab.Config.EValue})
	if err != nil {
		return nil, err
	}
	agg := newByLength()
	for _, q := range lab.Queries {
		m := len(q.Residues)
		minScore := lab.minScoreFor(lab.Config.EValue, m)

		start := time.Now()
		if _, err := core.SearchAll(lab.Mem, q.Residues, core.Options{Scheme: lab.Scheme, MinScore: minScore}); err != nil {
			return nil, err
		}
		agg.add(m, "oasis", float64(time.Since(start)))

		start = time.Now()
		if _, err := core.SearchAll(idx, q.Residues, core.Options{Scheme: lab.Scheme, MinScore: minScore}); err != nil {
			return nil, err
		}
		agg.add(m, "oasisdisk", float64(time.Since(start)))

		start = time.Now()
		if _, err := bl.Search(q.Residues, nil); err != nil {
			return nil, err
		}
		agg.add(m, "blast", float64(time.Since(start)))

		start = time.Now()
		if _, err := align.SearchDatabase(lab.DB, q.Residues, lab.Scheme, align.Options{MinScore: minScore}); err != nil {
			return nil, err
		}
		agg.add(m, "sw", float64(time.Since(start)))
		agg.bump(m)
	}
	var rows []Figure3Row
	for _, l := range agg.lengths() {
		rows = append(rows, Figure3Row{
			QueryLength:   l,
			NumQueries:    agg.buckets[l].count,
			OASISTime:     time.Duration(agg.mean(l, "oasis")),
			OASISDiskTime: time.Duration(agg.mean(l, "oasisdisk")),
			BLASTTime:     time.Duration(agg.mean(l, "blast")),
			SWTime:        time.Duration(agg.mean(l, "sw")),
		})
	}
	return rows, nil
}

// Figure4Row is one point of Figure 4: mean number of dynamic-programming
// columns expanded per query, by query length.
type Figure4Row struct {
	QueryLength  int
	NumQueries   int
	OASISColumns float64
	SWColumns    float64
	// Fraction is OASISColumns / SWColumns.
	Fraction float64
}

// Figure4 measures the filtering efficiency of OASIS relative to S-W.
func Figure4(lab *Lab) ([]Figure4Row, error) {
	agg := newByLength()
	for _, q := range lab.Queries {
		m := len(q.Residues)
		minScore := lab.minScoreFor(lab.Config.EValue, m)
		var ost core.Stats
		if _, err := core.SearchAll(lab.Mem, q.Residues, core.Options{Scheme: lab.Scheme, MinScore: minScore, Stats: &ost}); err != nil {
			return nil, err
		}
		var sst align.Stats
		if _, err := align.SearchDatabase(lab.DB, q.Residues, lab.Scheme, align.Options{MinScore: minScore, Stats: &sst}); err != nil {
			return nil, err
		}
		agg.add(m, "oasis", float64(ost.ColumnsExpanded))
		agg.add(m, "sw", float64(sst.ColumnsExpanded))
		agg.bump(m)
	}
	var rows []Figure4Row
	for _, l := range agg.lengths() {
		row := Figure4Row{
			QueryLength:  l,
			NumQueries:   agg.buckets[l].count,
			OASISColumns: agg.mean(l, "oasis"),
			SWColumns:    agg.mean(l, "sw"),
		}
		if row.SWColumns > 0 {
			row.Fraction = row.OASISColumns / row.SWColumns
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Figure5Row is one point of Figure 5: how many more matching sequences
// OASIS returns than the heuristic, by query length.
type Figure5Row struct {
	QueryLength   int
	NumQueries    int
	OASISMatches  float64
	BLASTMatches  float64
	AdditionalPct float64
}

// Figure5 compares the number of matches returned by OASIS and BLAST at the
// same E-value threshold.
func Figure5(lab *Lab) ([]Figure5Row, error) {
	bl, err := blast.NewSearcher(lab.DB, lab.Scheme, blast.Options{TwoHit: true, EValue: lab.Config.EValue})
	if err != nil {
		return nil, err
	}
	agg := newByLength()
	for _, q := range lab.Queries {
		m := len(q.Residues)
		minScore := lab.minScoreFor(lab.Config.EValue, m)
		oasisHits, err := core.SearchAll(lab.Mem, q.Residues, core.Options{Scheme: lab.Scheme, MinScore: minScore})
		if err != nil {
			return nil, err
		}
		blastHits, err := bl.Search(q.Residues, nil)
		if err != nil {
			return nil, err
		}
		agg.add(m, "oasis", float64(len(oasisHits)))
		agg.add(m, "blast", float64(len(blastHits)))
		agg.bump(m)
	}
	var rows []Figure5Row
	for _, l := range agg.lengths() {
		row := Figure5Row{
			QueryLength:  l,
			NumQueries:   agg.buckets[l].count,
			OASISMatches: agg.mean(l, "oasis"),
			BLASTMatches: agg.mean(l, "blast"),
		}
		if row.BLASTMatches > 0 {
			row.AdditionalPct = 100 * (row.OASISMatches - row.BLASTMatches) / row.BLASTMatches
		} else if row.OASISMatches > 0 {
			row.AdditionalPct = 100
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Figure6Row is one point of Figure 6: the effect of selectivity (E-value)
// on OASIS query time.
type Figure6Row struct {
	QueryLength int
	NumQueries  int
	TimeE1      time.Duration
	TimeELarge  time.Duration
	// HitsE1 / HitsELarge are the mean result counts at the two settings.
	HitsE1     float64
	HitsELarge float64
}

// Figure6 runs OASIS at the two selectivity extremes used in the paper
// (E=1 and E=20,000).
func Figure6(lab *Lab) ([]Figure6Row, error) {
	agg := newByLength()
	for _, q := range lab.Queries {
		m := len(q.Residues)
		for _, e := range []float64{1, lab.Config.EValue} {
			minScore := lab.minScoreFor(e, m)
			start := time.Now()
			hits, err := core.SearchAll(lab.Mem, q.Residues, core.Options{Scheme: lab.Scheme, MinScore: minScore})
			if err != nil {
				return nil, err
			}
			elapsed := time.Since(start)
			if e == 1 {
				agg.add(m, "t1", float64(elapsed))
				agg.add(m, "h1", float64(len(hits)))
			} else {
				agg.add(m, "tL", float64(elapsed))
				agg.add(m, "hL", float64(len(hits)))
			}
		}
		agg.bump(m)
	}
	var rows []Figure6Row
	for _, l := range agg.lengths() {
		rows = append(rows, Figure6Row{
			QueryLength: l,
			NumQueries:  agg.buckets[l].count,
			TimeE1:      time.Duration(agg.mean(l, "t1")),
			TimeELarge:  time.Duration(agg.mean(l, "tL")),
			HitsE1:      agg.mean(l, "h1"),
			HitsELarge:  agg.mean(l, "hL"),
		})
	}
	return rows, nil
}

// Figure7Row is one point of Figure 7: mean query time versus buffer pool
// size.
type Figure7Row struct {
	PoolBytes     int64
	PoolFraction  float64 // pool size / index size
	MeanQueryTime time.Duration
}

// Figure7 sweeps the buffer pool size.  Fractions are relative to the index
// file size, mirroring the paper's 32 MB - 512 MB sweep against its ~500 MB
// index.
func Figure7(lab *Lab, fractions []float64) ([]Figure7Row, error) {
	if len(fractions) == 0 {
		fractions = []float64{0.05, 0.125, 0.25, 0.5, 1.0}
	}
	info, err := os.Stat(lab.IndexPath)
	if err != nil {
		return nil, err
	}
	var rows []Figure7Row
	for _, f := range fractions {
		poolBytes := int64(float64(info.Size()) * f)
		if poolBytes < int64(lab.Config.BlockSize)*8 {
			poolBytes = int64(lab.Config.BlockSize) * 8
		}
		idx, pool, err := lab.openIndex(poolBytes)
		if err != nil {
			return nil, err
		}
		var total time.Duration
		n := 0
		for _, q := range lab.Queries {
			minScore := lab.minScoreFor(lab.Config.EValue, len(q.Residues))
			start := time.Now()
			if _, err := core.SearchAll(idx, q.Residues, core.Options{Scheme: lab.Scheme, MinScore: minScore}); err != nil {
				idx.Close()
				return nil, err
			}
			total += time.Since(start)
			n++
		}
		_ = pool
		idx.Close()
		rows = append(rows, Figure7Row{
			PoolBytes:     poolBytes,
			PoolFraction:  f,
			MeanQueryTime: total / time.Duration(n),
		})
	}
	return rows, nil
}

// Figure8Row is one point of Figure 8: buffer hit ratio per index component
// versus buffer pool size.  The paper's third component, the symbols, has no
// ratio: the index keeps them resident, outside the pool.
type Figure8Row struct {
	PoolBytes        int64
	PoolFraction     float64
	InternalHitRatio float64
	LeafHitRatio     float64
}

// Figure8 sweeps the buffer pool size and reports hit ratios for the
// internal-node and leaf regions separately.
func Figure8(lab *Lab, fractions []float64) ([]Figure8Row, error) {
	if len(fractions) == 0 {
		fractions = []float64{0.05, 0.125, 0.25, 0.5, 1.0}
	}
	info, err := os.Stat(lab.IndexPath)
	if err != nil {
		return nil, err
	}
	var rows []Figure8Row
	for _, f := range fractions {
		poolBytes := int64(float64(info.Size()) * f)
		if poolBytes < int64(lab.Config.BlockSize)*8 {
			poolBytes = int64(lab.Config.BlockSize) * 8
		}
		idx, pool, err := lab.openIndex(poolBytes)
		if err != nil {
			return nil, err
		}
		for _, q := range lab.Queries {
			minScore := lab.minScoreFor(lab.Config.EValue, len(q.Residues))
			if _, err := core.SearchAll(idx, q.Residues, core.Options{Scheme: lab.Scheme, MinScore: minScore}); err != nil {
				idx.Close()
				return nil, err
			}
		}
		rows = append(rows, Figure8Row{
			PoolBytes:        poolBytes,
			PoolFraction:     f,
			InternalHitRatio: pool.Stats(idx.InternalFile()).HitRatio(),
			LeafHitRatio:     pool.Stats(idx.LeavesFile()).HitRatio(),
		})
		idx.Close()
	}
	return rows, nil
}

// Figure9Row is one point of Figure 9: the time at which the i-th result of
// a single query is returned.
type Figure9Row struct {
	Rank    int
	Elapsed time.Duration
	Score   int
}

// Figure9 measures the online behaviour of OASIS for one query (the paper
// uses the 13-residue motif DKDGDGCITTKEL at E=20,000): the elapsed time at
// which each successive result is delivered.
func Figure9(lab *Lab, query []byte) ([]Figure9Row, error) {
	if len(query) == 0 {
		// Pick the workload query closest to 13 residues, mirroring the
		// paper's example.
		best := lab.Queries[0].Residues
		for _, q := range lab.Queries {
			if abs(len(q.Residues)-13) < abs(len(best)-13) {
				best = q.Residues
			}
		}
		query = best
	}
	minScore := lab.minScoreFor(lab.Config.EValue, len(query))
	var rows []Figure9Row
	start := time.Now()
	err := core.Search(lab.Mem, query, core.Options{Scheme: lab.Scheme, MinScore: minScore}, func(h core.Hit) bool {
		rows = append(rows, Figure9Row{Rank: h.Rank, Elapsed: time.Since(start), Score: h.Score})
		return true
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// SpaceRow reproduces the space-utilisation table of Section 4.2.
type SpaceRow struct {
	DataSetSymbols int64
	IndexBytes     int64
	SymbolsBytes   int64
	InternalBytes  int64
	LeafBytes      int64
	BytesPerSymbol float64
}

// TableSpace reports the index space utilisation.
func TableSpace(lab *Lab) SpaceRow {
	st := lab.BuildStats
	return SpaceRow{
		DataSetSymbols: st.TotalResidues,
		IndexBytes:     st.FileBytes,
		SymbolsBytes:   st.SymbolsBytes,
		InternalBytes:  st.InternalBytes,
		LeafBytes:      st.LeafBytes,
		BytesPerSymbol: st.BytesPerSymbol,
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
