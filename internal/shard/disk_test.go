package shard

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/diskst"
	"repro/internal/score"
	"repro/internal/seq"
)

// TestDiskEngineEquivalenceProperty is the randomized disk-vs-memory
// equivalence property: across random databases, queries and shard counts, a
// sharded engine serving per-shard DISK indexes
// through per-shard buffer pools must report the same sequences with the
// same scores, in globally non-increasing score order and with the same
// score at every rank, as the single in-memory index search.
func TestDiskEngineEquivalenceProperty(t *testing.T) {
	cases := map[string]struct {
		a      *seq.Alphabet
		scheme score.Scheme
	}{
		"dna":     {seq.DNA, score.MustScheme(score.UnitDNA(), -1)},
		"protein": {seq.Protein, score.MustScheme(score.ByName("PAM30"), -10)},
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(4021))
			letters := cfg.a.Letters()
			for trial := 0; trial < 12; trial++ {
				db := randomShardDB(t, rng, cfg.a, 2+rng.Intn(24), 80)
				qb := make([]byte, 3+rng.Intn(14))
				for i := range qb {
					qb[i] = letters[rng.Intn(len(letters))]
				}
				query := cfg.a.MustEncode(string(qb))
				opts := core.Options{Scheme: cfg.scheme, MinScore: 1 + rng.Intn(10)}

				single, err := core.BuildMemoryIndex(db)
				if err != nil {
					t.Fatal(err)
				}
				baseline, err := core.SearchAll(single, query, opts)
				if err != nil {
					t.Fatal(err)
				}

				shards := 1 + rng.Intn(5)
				dir := filepath.Join(t.TempDir(), "idx")
				manifest, _, err := diskst.BuildSharded(dir, db, diskst.ShardedBuildOptions{
					BlockSize: 2048,
					Shards:    shards,
				})
				if err != nil {
					t.Fatalf("trial %d: BuildSharded: %v", trial, err)
				}
				// Tiny pools force real page traffic and eviction.
				opened, err := diskst.OpenDir(dir, 16*2048, false)
				if err != nil {
					t.Fatalf("trial %d: OpenDir: %v", trial, err)
				}
				eng, err := OpenDiskEngine(opened)
				if err != nil {
					t.Fatalf("trial %d: OpenDiskEngine: %v", trial, err)
				}
				if eng.NumShards() != len(manifest.Shards) {
					t.Fatalf("engine has %d shards, manifest %d", eng.NumShards(), len(manifest.Shards))
				}
				got, err := eng.SearchAll(query, opts)
				if err != nil {
					t.Fatalf("trial %d: search: %v", trial, err)
				}
				checkOrderAndRanks(t, got, "disk")
				if len(got) != len(baseline) {
					t.Fatalf("trial %d shards=%d: disk reported %d hits, memory single %d",
						trial, shards, len(got), len(baseline))
				}
				want := multiset(baseline)
				for i, h := range got {
					if want[keyOf(h)] == 0 {
						t.Fatalf("trial %d: hit %+v not in single-index results", trial, h)
					}
					want[keyOf(h)]--
					if h.Score != baseline[i].Score {
						t.Fatalf("trial %d: rank %d score %d, single-index %d",
							trial, i+1, h.Score, baseline[i].Score)
					}
				}
				// The global catalog must describe the source database so
				// alignment recovery and metadata lookups agree with it.
				cat := eng.Catalog()
				if cat.NumSequences() != db.NumSequences() || cat.TotalResidues() != db.TotalResidues() {
					t.Fatalf("catalog reports %d seqs / %d residues, db has %d / %d",
						cat.NumSequences(), cat.TotalResidues(), db.NumSequences(), db.TotalResidues())
				}
				for i := 0; i < db.NumSequences(); i++ {
					if cat.SequenceID(i) != db.Sequence(i).ID {
						t.Fatalf("catalog sequence %d is %q, db has %q", i, cat.SequenceID(i), db.Sequence(i).ID)
					}
					res, err := cat.Residues(i)
					if err != nil {
						t.Fatal(err)
					}
					if string(res) != string(db.Sequence(i).Residues) {
						t.Fatalf("catalog residues for sequence %d differ from the database", i)
					}
				}
				if len(got) > 0 {
					var requests int64
					for _, ps := range opened.PoolStats() {
						requests += ps.Requests
					}
					if requests == 0 {
						t.Fatalf("trial %d: search reported hits without touching any buffer pool", trial)
					}
				}
				if err := eng.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// openDisk is the two calls every disk consumer makes: open the directory,
// arrange its handles into an engine (which owns the directory from then on).
func openDisk(path string, poolBytes int64, allowDegraded bool) (*Engine, error) {
	dir, err := diskst.OpenDir(path, poolBytes, allowDegraded)
	if err != nil {
		return nil, err
	}
	return OpenDiskEngine(dir)
}

// TestDiskEngineUnionCatalogLocate pins the engine catalog's concatenated
// coordinate view over its shards: positions locate to the same sequences as
// in the source database.
func TestDiskEngineUnionCatalogLocate(t *testing.T) {
	db, err := seq.DatabaseFromStrings(seq.DNA, "ACGTAC", "GG", "TTTACG", "A")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, _, err := diskst.BuildSharded(dir, db, diskst.ShardedBuildOptions{Shards: 3}); err != nil {
		t.Fatal(err)
	}
	eng, err := openDisk(dir, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	cat := eng.Catalog()
	for pos := int64(0); pos < db.ConcatLen(); pos++ {
		wantSeq, _, err := db.Locate(pos)
		if err != nil {
			t.Fatal(err)
		}
		gotSeq, err := cat.Locate(pos)
		if err != nil {
			t.Fatalf("Locate(%d): %v", pos, err)
		}
		if gotSeq != wantSeq {
			t.Fatalf("Locate(%d) = %d, database has %d", pos, gotSeq, wantSeq)
		}
	}
	if _, err := cat.Locate(db.ConcatLen()); err == nil {
		t.Fatal("Locate past the end did not fail")
	}
}

// TestDegradedDiskEngineKeepsGlobalNumbers: with shard 0 quarantined at open,
// the one surviving shard is searched alone, yet its hits keep the global
// sequence indexes of the whole directory — the quarantined shard's sequences
// still count ahead of them — and the catalog resolves each to its hit's ID.
func TestDegradedDiskEngineKeepsGlobalNumbers(t *testing.T) {
	db := randomShardDB(t, rand.New(rand.NewSource(43)), seq.DNA, 12, 60)
	dir := t.TempDir()
	if _, _, err := diskst.BuildSharded(dir, db, diskst.ShardedBuildOptions{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(dir, "shard-0.oasis"), 16); err != nil {
		t.Fatal(err)
	}
	eng, err := openDisk(dir, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if eng.NumShards() != 1 || eng.NumSequences() != db.NumSequences() {
		t.Fatalf("degraded engine: %d shards over %d sequences, want 1 over %d", eng.NumShards(), eng.NumSequences(), db.NumSequences())
	}
	last := db.NumSequences() - 1
	hits, err := eng.SearchAll(db.Sequence(last).Residues, core.Options{Scheme: score.MustScheme(score.UnitDNA(), -1), MinScore: 4})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, h := range hits {
		if want := db.Sequence(h.SeqIndex).ID; h.SeqID != want || eng.Catalog().SequenceID(h.SeqIndex) != want {
			t.Fatalf("hit %+v: global sequence %d is %s", h, h.SeqIndex, want)
		}
		found = found || h.SeqIndex == last
	}
	if !found {
		t.Fatalf("the query, global sequence %d itself, was not found: %+v", last, hits)
	}
}
