package oasis_test

import (
	"context"
	"testing"

	"repro/internal/workload"
	"repro/oasis"
)

func engineTestDB(t *testing.T) *oasis.Database {
	t.Helper()
	raw := map[string]string{
		"CALM_HUMAN":  "ADQLTEEQIAEFKEAFSLFDKDGDGTITTKELGTVMRSLGQNPTEAELQDMINEVDADGNGTIDFPEFLTMMARKM",
		"TNNC1_HUMAN": "MDDIYKAAVEQLTEEQKNEFKAAFDIFVLGAEDGCISTKELGKVMRMLGQNPTPEELQEMIDEVDEDGSGTVDFDEFLVMMVRCM",
		"MYG_HUMAN":   "GLSDGEWQLVLNVWGKVEADIPGHGQEVLIRLFKGHPETLEKFDKFKHLKSEDEMKASEDLKKHGATVLTALGGILKKKGHHEAEI",
		"PARV_HUMAN":  "SMTDLLNAEDIKKAVGAFSATDSFDHKKFFQMVGLKKKSADDVKKVFHMLDKDKSGFIEEDELGFILKGFSPDARDLSAKETKMLM",
		"UNRELATED":   "PPPPGGGGSSSSPPPPGGGGSSSSPPPPGGGGSSSS",
	}
	var seqs []oasis.Sequence
	for id, residues := range raw {
		seqs = append(seqs, oasis.Sequence{ID: id, Residues: oasis.Protein.MustEncode(residues)})
	}
	db, err := oasis.NewDatabase(oasis.Protein, seqs)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// workloadCorpus generates a synthetic protein database with planted motifs
// and n queries drawn from them.
func workloadCorpus(t *testing.T, seed int64, n int) (*oasis.Database, [][]byte) {
	t.Helper()
	cfg := workload.DefaultProteinConfig(30_000)
	cfg.Seed = seed
	db, motifs, err := workload.ProteinDatabase(cfg)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := workload.MotifQueries(db, motifs, workload.DefaultQueryConfig(n))
	if err != nil {
		t.Fatal(err)
	}
	queries := make([][]byte, len(qs))
	for i, q := range qs {
		queries[i] = q.Residues
	}
	return db, queries
}

// assertMatchesSingleIndex holds eng to the one-shot Search API over a single
// in-memory index of db: per query the same number of hits, the same score at
// every rank and the same (sequence, score) set — equal-score hits may
// interleave differently across shards.  each, when non-nil, then checks what
// only the configuration under test promises, given both sides' work counters.
func assertMatchesSingleIndex(t *testing.T, eng *oasis.Engine, db *oasis.Database, scheme oasis.Scheme, queries [][]byte,
	each func(t *testing.T, q []byte, got []oasis.Hit, single, sharded oasis.SearchStats)) {
	t.Helper()
	idx, err := oasis.NewMemoryIndex(db)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		opts, err := oasis.NewSearchOptionsSized(scheme, eng.TotalResidues(), q, oasis.WithEValue(20000))
		if err != nil {
			t.Fatal(err)
		}
		var single, sharded oasis.SearchStats
		opts.Stats = &single
		want, err := oasis.SearchAll(idx, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Stats = &sharded
		got, err := eng.SearchAll(context.Background(), q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: engine returned %d hits, single index %d", qi, len(got), len(want))
		}
		wantSet := map[int]int{}
		for i := range got {
			if got[i].Score != want[i].Score {
				t.Fatalf("query %d hit %d: score %d, want %d", qi, i, got[i].Score, want[i].Score)
			}
			wantSet[want[i].SeqIndex] = want[i].Score
		}
		for _, h := range got {
			if s, ok := wantSet[h.SeqIndex]; !ok || s != h.Score {
				t.Fatalf("query %d: hit %s score %d not in single-index results", qi, h.SeqID, h.Score)
			}
		}
		if each != nil {
			each(t, q, got, single, sharded)
		}
	}
}

// TestEngineMatchesSingleIndex pins the engine to the one-shot Search API in
// each in-memory configuration: same hits, same score order.
func TestEngineMatchesSingleIndex(t *testing.T) {
	blosum, err := oasis.NewScheme(oasis.MatrixByName("BLOSUM62"), -8)
	if err != nil {
		t.Fatal(err)
	}
	pam, err := oasis.NewScheme(oasis.MatrixByName("PAM30"), -10)
	if err != nil {
		t.Fatal(err)
	}
	tinyDB := engineTestDB(t)
	tinyQueries := [][]byte{
		oasis.Protein.MustEncode("DKDGDGTITTKE"),
		oasis.Protein.MustEncode("KETKMLM"),
		oasis.Protein.MustEncode("GQNPT"),
	}
	seqDB, seqQueries := workloadCorpus(t, 77, 6)
	for _, tc := range []struct {
		name    string
		db      *oasis.Database
		queries [][]byte
		scheme  oasis.Scheme
		opts    oasis.EngineOptions
		// rounds repeats the query list: warm paths (scratch reuse) must not
		// leak state between queries.
		rounds int
		each   func(t *testing.T, q []byte, got []oasis.Hit, single, sharded oasis.SearchStats)
	}{
		{name: "tiny-2-shards-warm", db: tinyDB, queries: tinyQueries, scheme: blosum,
			opts: oasis.EngineOptions{Shards: 2}, rounds: 3},
		{name: "workload-4-sequence-shards", db: seqDB, queries: seqQueries, scheme: pam,
			opts: oasis.EngineOptions{Shards: 4}, rounds: 1,
			each: func(t *testing.T, _ []byte, got []oasis.Hit, _, sharded oasis.SearchStats) {
				if len(got) > 0 && sharded.NodesExpanded == 0 {
					t.Fatal("per-shard stats were not merged")
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := oasis.NewEngine(tc.db, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			if eng.NumShards() != tc.opts.Shards {
				t.Fatalf("got %d shards, want %d", eng.NumShards(), tc.opts.Shards)
			}
			for round := 0; round < tc.rounds; round++ {
				assertMatchesSingleIndex(t, eng, tc.db, tc.scheme, tc.queries, tc.each)
			}
			if served, want := eng.Stats().QueriesServed, int64(tc.rounds*len(tc.queries)); served != want {
				t.Fatalf("engine served %d queries, want %d", served, want)
			}
		})
	}
}

// TestEngineSubmitBatch exercises the public batch API end to end, including
// per-query decreasing-score order and Done bookkeeping.
func TestEngineSubmitBatch(t *testing.T) {
	db := engineTestDB(t)
	eng, err := oasis.NewEngine(db, oasis.EngineOptions{Shards: 2, BatchWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	scheme, err := oasis.NewScheme(oasis.MatrixByName("BLOSUM62"), -8)
	if err != nil {
		t.Fatal(err)
	}
	var batch []oasis.BatchQuery
	for _, s := range []string{"DKDGDGTITTKE", "KETKMLM", "GQNPT", "FDKFKHLK"} {
		q := oasis.Protein.MustEncode(s)
		opts, err := oasis.NewSearchOptions(scheme, db, q, oasis.WithEValue(20000))
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, oasis.BatchQuery{ID: s, Residues: q, Options: opts})
	}
	last := map[int]int{}
	done := map[int]bool{}
	for r := range eng.SubmitBatch(context.Background(), batch) {
		if r.Done {
			if r.Err != nil {
				t.Fatalf("query %q failed: %v", r.QueryID, r.Err)
			}
			done[r.Index] = true
			continue
		}
		if prev, ok := last[r.Index]; ok && r.Hit.Score > prev {
			t.Fatalf("query %q: score order violated (%d after %d)", r.QueryID, r.Hit.Score, prev)
		}
		last[r.Index] = r.Hit.Score
		if batch[r.Index].ID != r.QueryID {
			t.Fatalf("result carries ID %q for index %d, want %q", r.QueryID, r.Index, batch[r.Index].ID)
		}
	}
	if len(done) != len(batch) {
		t.Fatalf("%d Done events, want %d", len(done), len(batch))
	}
	// Mid-stream cancellation: the channel must close promptly.
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	for range eng.SubmitBatch(ctx, batch) {
		n++
		if n == 2 {
			cancel()
		}
	}
	cancel()
}

// TestEngineCacheBytes exercises the public cache plumbing: an engine built
// with CacheBytes must replay identical queries byte-identically without
// touching the index and expose the hit counters through Metrics.
func TestEngineCacheBytes(t *testing.T) {
	db := engineTestDB(t)
	eng, err := oasis.NewEngine(db, oasis.EngineOptions{Shards: 2, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	scheme, err := oasis.NewScheme(oasis.MatrixByName("BLOSUM62"), -8)
	if err != nil {
		t.Fatal(err)
	}
	q := oasis.Protein.MustEncode("DKDGDGTITTKE")
	opts, err := oasis.NewSearchOptions(scheme, db, q, oasis.WithEValue(20000))
	if err != nil {
		t.Fatal(err)
	}
	var streams [2][]oasis.Hit
	for i := range streams {
		streams[i], err = eng.SearchAll(context.Background(), q, opts)
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(streams[0]) == 0 {
		t.Fatal("query reported no hits")
	}
	if len(streams[0]) != len(streams[1]) {
		t.Fatalf("replay changed the hit count: %d vs %d", len(streams[0]), len(streams[1]))
	}
	for i := range streams[0] {
		if streams[0][i] != streams[1][i] {
			t.Fatalf("hit %d differs between live run and replay:\n%+v\n%+v", i, streams[0][i], streams[1][i])
		}
	}
	m := eng.Metrics()
	if m.Cache == nil {
		t.Fatal("CacheBytes engine exposes no cache metrics")
	}
	if m.Cache.Hits == 0 || m.Cache.Insertions == 0 || m.Cache.HitRate <= 0 {
		t.Fatalf("cache metrics after a replayed query: %+v", *m.Cache)
	}
	// Replays do no index work: the engine-wide counters must not grow.
	st1 := eng.Stats()
	if _, err := eng.SearchAll(context.Background(), q, opts); err != nil {
		t.Fatal(err)
	}
	st2 := eng.Stats()
	if st2.Search.CellsComputed != st1.Search.CellsComputed {
		t.Fatalf("replay touched the index: %d cells before, %d after",
			st1.Search.CellsComputed, st2.Search.CellsComputed)
	}
	if st2.QueriesServed != st1.QueriesServed+1 {
		t.Fatalf("replay not counted as a served query: %d -> %d", st1.QueriesServed, st2.QueriesServed)
	}
}
