package experiments

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/seq"
)

// tinyConfig keeps experiment tests fast while still exercising every code
// path.
func tinyConfig() Config {
	return Config{
		TotalResidues:   25_000,
		NumQueries:      10,
		EValue:          20000,
		MatrixName:      "PAM30",
		GapPenalty:      -10,
		BlockSize:       512,
		BufferPoolBytes: 8 << 20,
		Seed:            99,
	}
}

func newTinyLab(t *testing.T) *Lab {
	t.Helper()
	cfg := tinyConfig()
	// A directory that does not exist yet: NewLab creates it, as oasis-bench
	// -dir may ask.
	cfg.Dir = filepath.Join(t.TempDir(), "missing", "dir")
	lab, err := NewLab(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lab.Close)
	return lab
}

func TestLabSetup(t *testing.T) {
	lab := newTinyLab(t)
	if lab.DB.NumSequences() == 0 || len(lab.Queries) != 10 {
		t.Fatalf("lab setup wrong: %d sequences, %d queries", lab.DB.NumSequences(), len(lab.Queries))
	}
	if lab.BuildStats.BytesPerSymbol <= 0 {
		t.Fatal("missing build stats")
	}
	if !strings.Contains(lab.Summary(), "queries") {
		t.Fatal("summary missing content")
	}
	if _, err := NewLab(Config{MatrixName: "NOSUCH"}); err == nil {
		t.Fatal("unknown matrix should be rejected")
	}
}

func TestFigure3And4And5(t *testing.T) {
	lab := newTinyLab(t)

	f3, err := Figure3(lab)
	if err != nil {
		t.Fatal(err)
	}
	if len(f3) == 0 {
		t.Fatal("Figure 3 produced no rows")
	}
	for _, r := range f3 {
		if r.NumQueries <= 0 {
			t.Fatalf("row without queries: %+v", r)
		}
	}
	// The headline claim: OASIS does less work than S-W overall on the short
	// query workload (the paper reports an order of magnitude in time).
	// Wall clock at this scale is noise, so count DP cells instead.
	var oasisCells, swCells int64
	for _, q := range lab.Queries {
		minScore := lab.minScoreFor(lab.Config.EValue, len(q.Residues))
		var ost core.Stats
		if _, err := core.SearchAll(lab.Mem, q.Residues, core.Options{Scheme: lab.Scheme, MinScore: minScore, Stats: &ost}); err != nil {
			t.Fatal(err)
		}
		var sst align.Stats
		if _, err := align.SearchDatabase(lab.DB, q.Residues, lab.Scheme, align.Options{MinScore: minScore, Stats: &sst}); err != nil {
			t.Fatal(err)
		}
		oasisCells += ost.CellsComputed
		swCells += sst.CellsComputed
	}
	if oasisCells >= swCells {
		t.Fatalf("OASIS computed %d DP cells over %d queries, S-W %d: no saving", oasisCells, len(lab.Queries), swCells)
	}
	t.Logf("DP cells over %d queries: OASIS %d, S-W %d (%.1f%%)", len(lab.Queries), oasisCells, swCells, 100*float64(oasisCells)/float64(swCells))

	f4, err := Figure4(lab)
	if err != nil {
		t.Fatal(err)
	}
	totO, totS := 0.0, 0.0
	for _, r := range f4 {
		if r.OASISColumns < 0 || r.SWColumns <= 0 {
			t.Fatalf("bad figure 4 row: %+v", r)
		}
		totO += r.OASISColumns * float64(r.NumQueries)
		totS += r.SWColumns * float64(r.NumQueries)
	}
	// Filtering: OASIS must expand fewer columns than S-W overall (the
	// paper reports 3.9% on average, 18.5% worst case).
	if totO >= totS {
		t.Fatalf("OASIS expanded %.0f columns, S-W %.0f — no filtering", totO, totS)
	}

	f5, err := Figure5(lab)
	if err != nil {
		t.Fatal(err)
	}
	sumOASIS, sumBLAST := 0.0, 0.0
	for _, r := range f5 {
		sumOASIS += r.OASISMatches * float64(r.NumQueries)
		sumBLAST += r.BLASTMatches * float64(r.NumQueries)
	}
	if sumOASIS < sumBLAST {
		t.Fatalf("OASIS found fewer matches (%.0f) than the heuristic (%.0f)", sumOASIS, sumBLAST)
	}

	var buf bytes.Buffer
	RenderFigure3(&buf, f3)
	RenderFigure4(&buf, f4)
	RenderFigure5(&buf, f5)
	for _, want := range []string{"Figure 3", "Figure 4", "Figure 5", "fraction"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("rendered output missing %q", want)
		}
	}
}

func TestFigure6(t *testing.T) {
	lab := newTinyLab(t)
	rows, err := Figure6(lab)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		// E=1 is more selective: it can never return more hits than
		// E=20000.
		if r.HitsE1 > r.HitsELarge {
			t.Fatalf("E=1 returned more hits than E=20000: %+v", r)
		}
	}
	var buf bytes.Buffer
	RenderFigure6(&buf, rows, lab.Config.EValue)
	if !strings.Contains(buf.String(), "selectivity") {
		t.Fatal("render missing header")
	}
}

func TestFigure7And8(t *testing.T) {
	lab := newTinyLab(t)
	fractions := []float64{0.05, 0.5, 1.0}
	f7, err := Figure7(lab, fractions)
	if err != nil {
		t.Fatal(err)
	}
	if len(f7) != len(fractions) {
		t.Fatalf("expected %d rows, got %d", len(fractions), len(f7))
	}
	f8, err := Figure8(lab, fractions)
	if err != nil {
		t.Fatal(err)
	}
	if len(f8) != len(fractions) {
		t.Fatalf("expected %d rows, got %d", len(fractions), len(f8))
	}
	// Hit ratios must be valid probabilities, and a pool that holds the
	// whole index must not have a lower internal-node hit ratio than the
	// smallest pool.
	for _, r := range f8 {
		for _, v := range []float64{r.InternalHitRatio, r.LeafHitRatio} {
			if v < 0 || v > 1 {
				t.Fatalf("hit ratio out of range: %+v", r)
			}
		}
	}
	if f8[len(f8)-1].InternalHitRatio < f8[0].InternalHitRatio-0.05 {
		t.Fatalf("bigger pool produced a materially worse internal hit ratio: %+v", f8)
	}
	var buf bytes.Buffer
	RenderFigure7(&buf, f7)
	RenderFigure8(&buf, f8)
	if !strings.Contains(buf.String(), "buffer pool") {
		t.Fatal("render missing header")
	}
}

func TestFigure9(t *testing.T) {
	lab := newTinyLab(t)
	// Use a query taken from a planted motif so there are many results.
	rows, err := Figure9(lab, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Skip("selected query produced no hits at this scale")
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Elapsed < rows[i-1].Elapsed {
			t.Fatalf("elapsed times not monotonic: %+v", rows)
		}
		if rows[i].Score > rows[i-1].Score {
			t.Fatalf("scores not descending: %+v", rows)
		}
		if rows[i].Rank != rows[i-1].Rank+1 {
			t.Fatalf("ranks not consecutive: %+v", rows)
		}
	}
	var buf bytes.Buffer
	RenderFigure9(&buf, rows)
	if !strings.Contains(buf.String(), "online") {
		t.Fatal("render missing header")
	}
	// An explicit query (the paper's example motif) must also work.
	explicit := seq.Protein.MustEncode("DKDGDGCITTKEL")
	if _, err := Figure9(lab, explicit); err != nil {
		t.Fatal(err)
	}
}

func TestTableSpace(t *testing.T) {
	lab := newTinyLab(t)
	row := TableSpace(lab)
	if row.BytesPerSymbol <= 0 || row.IndexBytes <= 0 {
		t.Fatalf("bad space row: %+v", row)
	}
	if row.SymbolsBytes+row.InternalBytes+row.LeafBytes > row.IndexBytes {
		t.Fatalf("region sizes exceed file size: %+v", row)
	}
	var buf bytes.Buffer
	RenderSpace(&buf, row)
	if !strings.Contains(buf.String(), "bytes per symbol") {
		t.Fatal("render missing header")
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	c.fillDefaults()
	d := DefaultConfig()
	if c.TotalResidues != d.TotalResidues || c.MatrixName != d.MatrixName || c.EValue != d.EValue {
		t.Fatalf("defaults not applied: %+v", c)
	}
}
