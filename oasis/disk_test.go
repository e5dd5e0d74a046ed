package oasis_test

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/workload"
	"repro/oasis"
)

// buildDiskShardedIndex generates a workload database, writes it as a
// sharded disk index, and returns the database plus the index directory.
func buildDiskShardedIndex(t *testing.T, seed int64, shards int) (*oasis.Database, string) {
	t.Helper()
	cfg := workload.DefaultProteinConfig(30_000)
	cfg.Seed = seed
	db, _, err := workload.ProteinDatabase(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "idx")
	manifest, _, err := oasis.BuildShardedDiskIndex(dir, db, oasis.ShardedIndexBuildOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	if len(manifest.Shards) != shards {
		t.Fatalf("built %d shards, want %d", len(manifest.Shards), shards)
	}
	return db, dir
}

// TestDiskShardedIndexPublicAPI is TestEngineMatchesSingleIndex for the
// disk-backed engine: a sharded index built by BuildShardedDiskIndex and
// reopened with OpenEngine must report exactly the hits of the in-memory
// single-index search — same sequences, same scores, same score at every
// rank.
func TestDiskShardedIndexPublicAPI(t *testing.T) {
	t.Run("sequence", func(t *testing.T) {
		db, dir := buildDiskShardedIndex(t, 91, 4)
		qs, err := workload.MotifQueries(db, nil, workload.DefaultQueryConfig(5))
		if err != nil {
			t.Fatal(err)
		}
		queries := make([][]byte, len(qs))
		for i, q := range qs {
			queries[i] = q.Residues
		}
		scheme, err := oasis.NewScheme(oasis.MatrixByName("PAM30"), -10)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := oasis.OpenEngine(dir, oasis.EngineOptions{
			// Small pools keep real page traffic (and eviction) in play.
			PoolBytes: 64 * 2048,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if eng.NumShards() != 4 {
			t.Fatalf("got %d shards, want 4", eng.NumShards())
		}
		if eng.TotalResidues() != db.TotalResidues() {
			t.Fatalf("disk engine serves %d residues, db has %d", eng.TotalResidues(), db.TotalResidues())
		}
		assertMatchesSingleIndex(t, eng, db, scheme, queries,
			func(t *testing.T, q []byte, got []oasis.Hit, _, _ oasis.SearchStats) {
				// Alignment recovery must work without the source database:
				// residues come back through the shard buffer pools.
				if len(got) > 0 {
					if _, err := eng.RecoverAlignment(q, scheme, got[0]); err != nil {
						t.Fatalf("recover alignment: %v", err)
					}
				}
			})
	})
}

// TestDiskEngineServesBatches drives the warm batch engine over a disk index
// directory through the public facade (OpenEngine + SubmitBatch) and checks
// the multiplexed results against per-query in-memory searches.
func TestDiskEngineServesBatches(t *testing.T) {
	db, dir := buildDiskShardedIndex(t, 92, 3)
	queries, err := workload.MotifQueries(db, nil, workload.DefaultQueryConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := oasis.NewScheme(oasis.MatrixByName("PAM30"), -10)
	if err != nil {
		t.Fatal(err)
	}
	single, err := oasis.NewMemoryIndex(db)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := oasis.OpenEngine(dir, oasis.EngineOptions{BatchWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if eng.DB() != nil {
		t.Fatal("disk-backed engine must not hold a database")
	}
	if eng.NumSequences() != db.NumSequences() {
		t.Fatalf("engine serves %d sequences, db has %d", eng.NumSequences(), db.NumSequences())
	}

	batch := make([]oasis.BatchQuery, len(queries))
	wantCounts := make(map[string]int)
	for i, q := range queries {
		opts, err := oasis.NewSearchOptionsSized(scheme, eng.TotalResidues(), q.Residues, oasis.WithEValue(20000))
		if err != nil {
			t.Fatal(err)
		}
		batch[i] = oasis.BatchQuery{ID: q.ID, Residues: q.Residues, Options: opts}
		want, err := oasis.SearchAll(single, q.Residues, opts)
		if err != nil {
			t.Fatal(err)
		}
		wantCounts[q.ID] = len(want)
	}
	gotCounts := make(map[string]int)
	lastScore := make(map[string]int)
	for r := range eng.SubmitBatch(context.Background(), batch) {
		if r.Done {
			if r.Err != nil {
				t.Fatalf("query %s failed: %v", r.QueryID, r.Err)
			}
			continue
		}
		if prev, ok := lastScore[r.QueryID]; ok && r.Hit.Score > prev {
			t.Fatalf("query %s: score %d after %d", r.QueryID, r.Hit.Score, prev)
		}
		lastScore[r.QueryID] = r.Hit.Score
		gotCounts[r.QueryID]++
	}
	for id, want := range wantCounts {
		if gotCounts[id] != want {
			t.Fatalf("query %s: disk batch reported %d hits, single-index %d", id, gotCounts[id], want)
		}
	}
	// Disk-backed metrics must expose per-shard buffer-pool statistics.
	m := eng.Metrics()
	if len(m.Pools) == 0 {
		t.Fatal("disk-backed engine metrics have no buffer-pool stats")
	}
	var requests int64
	for _, ps := range m.Pools {
		requests += ps.Requests
	}
	if requests == 0 {
		t.Fatal("buffer pools saw no requests while serving batches")
	}
}
