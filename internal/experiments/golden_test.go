package experiments

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// goldenHit is one hit of the golden record, trimmed to the fields the
// search contract guarantees deterministically.
type goldenHit struct {
	SeqID    string `json:"seq_id"`
	SeqIndex int    `json:"seq_index"`
	Score    int    `json:"score"`
}

// goldenQuery freezes one Figure-4 workload query: its hits and the paper's
// work counters, so any kernel change that silently alters results or
// filtering behaviour fails this test.
type goldenQuery struct {
	ID              string      `json:"id"`
	Length          int         `json:"length"`
	MinScore        int         `json:"min_score"`
	TotalHits       int         `json:"total_hits"`
	TopHits         []goldenHit `json:"top_hits"` // first (strongest) 25
	ColumnsExpanded int64       `json:"columns_expanded"`
	CellsComputed   int64       `json:"cells_computed"`
	NodesExpanded   int64       `json:"nodes_expanded"`
}

type goldenFile struct {
	Residues int64         `json:"residues"`
	EValue   float64       `json:"evalue"`
	Seed     int64         `json:"seed"`
	Queries  []goldenQuery `json:"queries"`
}

// goldenConfig is a scaled-down Figure-4 workload: small enough to run in CI,
// large enough that every query has real hit structure.  Changing it
// invalidates the golden (regenerate with -update).
func goldenConfig() Config {
	cfg := DefaultConfig()
	cfg.TotalResidues = 30_000
	cfg.NumQueries = 6
	return cfg
}

// TestFigure4Golden runs the Figure-4 filtering workload against the
// committed golden record: per-query hits (identity, score, order) and the
// CellsComputed/ColumnsExpanded work counters.
// Regenerate with:
//
//	go test ./internal/experiments -run TestFigure4Golden -update
func TestFigure4Golden(t *testing.T) {
	lab, err := NewLab(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer lab.Close()

	got := goldenFile{
		Residues: lab.DB.TotalResidues(),
		EValue:   lab.Config.EValue,
		Seed:     lab.Config.Seed,
	}
	for _, q := range lab.Queries {
		minScore := lab.minScoreFor(lab.Config.EValue, len(q.Residues))
		var st core.Stats
		hits, err := core.SearchAll(lab.Mem, q.Residues, core.Options{
			Scheme: lab.Scheme, MinScore: minScore, Stats: &st,
		})
		if err != nil {
			t.Fatal(err)
		}
		gq := goldenQuery{
			ID:              q.ID,
			Length:          len(q.Residues),
			MinScore:        minScore,
			TotalHits:       len(hits),
			ColumnsExpanded: st.ColumnsExpanded,
			CellsComputed:   st.CellsComputed,
			NodesExpanded:   st.NodesExpanded,
		}
		for i, h := range hits {
			if i >= 25 {
				break
			}
			gq.TopHits = append(gq.TopHits, goldenHit{SeqID: h.SeqID, SeqIndex: h.SeqIndex, Score: h.Score})
		}
		got.Queries = append(got.Queries, gq)
	}

	path := filepath.Join("testdata", "figure4_golden.json")
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d queries)", path, len(got.Queries))
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create it): %v", err)
	}
	var want goldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden file %s: %v", path, err)
	}
	if got.Residues != want.Residues || got.EValue != want.EValue || got.Seed != want.Seed {
		t.Fatalf("workload shape changed: got %d residues E=%v seed=%d, golden has %d/%v/%d — regenerate with -update",
			got.Residues, got.EValue, got.Seed, want.Residues, want.EValue, want.Seed)
	}
	if len(got.Queries) != len(want.Queries) {
		t.Fatalf("%d queries, golden has %d", len(got.Queries), len(want.Queries))
	}
	for i, gq := range got.Queries {
		wq := want.Queries[i]
		if gq.ID != wq.ID || gq.Length != wq.Length || gq.MinScore != wq.MinScore {
			t.Errorf("query %d identity changed: got %s/%d/%d, want %s/%d/%d",
				i, gq.ID, gq.Length, gq.MinScore, wq.ID, wq.Length, wq.MinScore)
			continue
		}
		if gq.TotalHits != wq.TotalHits {
			t.Errorf("query %s: %d hits, golden has %d", gq.ID, gq.TotalHits, wq.TotalHits)
		}
		if gq.ColumnsExpanded != wq.ColumnsExpanded {
			t.Errorf("query %s: ColumnsExpanded %d, golden has %d (filtering behaviour changed)",
				gq.ID, gq.ColumnsExpanded, wq.ColumnsExpanded)
		}
		if gq.CellsComputed != wq.CellsComputed {
			t.Errorf("query %s: CellsComputed %d, golden has %d (kernel behaviour changed)",
				gq.ID, gq.CellsComputed, wq.CellsComputed)
		}
		if gq.NodesExpanded != wq.NodesExpanded {
			t.Errorf("query %s: NodesExpanded %d, golden has %d", gq.ID, gq.NodesExpanded, wq.NodesExpanded)
		}
		if len(gq.TopHits) != len(wq.TopHits) {
			t.Errorf("query %s: %d top hits, golden has %d", gq.ID, len(gq.TopHits), len(wq.TopHits))
			continue
		}
		for j := range gq.TopHits {
			if gq.TopHits[j] != wq.TopHits[j] {
				t.Errorf("query %s hit %d: got %+v, golden has %+v", gq.ID, j, gq.TopHits[j], wq.TopHits[j])
			}
		}
	}
}

// TestFigure4GoldenEngineAgreement cross-checks the committed golden against
// the warm batch engine, both one query at a time and multiplexed through
// SubmitBatch: per-query hit counts and the strongest hit's score must match
// what the golden records for the single-index search (the engine path must
// not drift from the core path).
func TestFigure4GoldenEngineAgreement(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "figure4_golden.json"))
	if err != nil {
		t.Skipf("no golden file: %v", err)
	}
	var want goldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	lab, err := NewLab(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer lab.Close()
	if len(lab.Queries) != len(want.Queries) {
		t.Fatalf("%d queries, golden has %d", len(lab.Queries), len(want.Queries))
	}
	eng, err := engine.New(lab.DB, engine.Options{Shards: 3, BatchWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	queries := make([]engine.Query, len(lab.Queries))
	for i, q := range lab.Queries {
		queries[i] = engine.Query{
			ID:       q.ID,
			Residues: q.Residues,
			Options:  core.Options{Scheme: lab.Scheme, MinScore: want.Queries[i].MinScore},
		}
	}
	check := func(mode string, hits [][]core.Hit) {
		t.Helper()
		for i, wq := range want.Queries {
			got := hits[i]
			if len(got) != wq.TotalHits {
				t.Errorf("%s: query %s reported %d hits, golden records %d", mode, wq.ID, len(got), wq.TotalHits)
				continue
			}
			if len(got) > 0 && got[0].Score != wq.TopHits[0].Score {
				t.Errorf("%s: query %s strongest score %d, golden records %d", mode, wq.ID, got[0].Score, wq.TopHits[0].Score)
			}
		}
	}

	ctx := context.Background()
	sequential := make([][]core.Hit, len(queries))
	for i, q := range queries {
		if _, err := eng.Search(ctx, q, func(h core.Hit) bool {
			sequential[i] = append(sequential[i], h)
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	check("warm-sequential", sequential)

	batched := make([][]core.Hit, len(queries))
	for r := range eng.SubmitBatch(ctx, queries) {
		if r.Done {
			if r.Err != nil {
				t.Fatalf("batch query %s: %v", r.QueryID, r.Err)
			}
			continue
		}
		batched[r.Index] = append(batched[r.Index], r.Hit)
	}
	check("warm-batch", batched)
}
