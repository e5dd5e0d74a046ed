package engine

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/diskst"
	"repro/internal/score"
	"repro/internal/seq"
)

// TestNewRefusesPrefixDirectory: a directory an older build wrote with
// prefix partitioning is refused at New, naming the rebuild.
func TestNewRefusesPrefixDirectory(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	dir := filepath.Join(t.TempDir(), "idx")
	if _, _, err := diskst.BuildSharded(dir, randomEngineDB(t, rng, seq.Protein, 6, 40), diskst.ShardedBuildOptions{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, diskst.ManifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, bytes.Replace(data, []byte(`"sequence"`), []byte(`"prefix"`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	eng, err := New(nil, Options{IndexDir: dir})
	if err == nil {
		eng.Close()
	}
	if want := "rebuild the index with oasis-build -shards 2"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("New over a prefix directory: %v, want an error containing %q", err, want)
	}
}

// TestSwappedShardFilesRefused: the manifest stores tombstones by global
// index, so a shard file opened in another file's place would make a
// tombstone hide the wrong sequence and bring the deleted one back.  Every
// file is checked against its own manifest record, so swapping two shard
// files that hold as many sequences as each other (but not as many residues)
// fails the open, naming the file.
func TestSwappedShardFilesRefused(t *testing.T) {
	db, err := seq.DatabaseFromStrings(seq.Protein, "DKDGDGCITTKE", "MKTAYIAKQRQI", "ACDEFGHIKLMNPQ", "WYWYWYWYWYWYWY")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "idx")
	if _, _, err := diskst.BuildSharded(dir, db, diskst.ShardedBuildOptions{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	eng, err := New(nil, Options{IndexDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Delete("seq0"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	a, b := filepath.Join(dir, "shard-0.oasis"), filepath.Join(dir, "shard-1.oasis")
	tmp := filepath.Join(dir, "swap")
	for _, mv := range [][2]string{{a, tmp}, {b, a}, {tmp, b}} {
		if err := os.Rename(mv[0], mv[1]); err != nil {
			t.Fatal(err)
		}
	}
	eng, err = New(nil, Options{IndexDir: dir})
	if err == nil {
		defer eng.Close()
		t.Fatalf("swapped shard files opened: tombstone 0 now hides %s, not seq0", eng.Catalog().SequenceID(0))
	}
	if !strings.Contains(err.Error(), "shard-0.oasis") {
		t.Fatalf("open of swapped shard files: %v, want an error naming shard-0.oasis", err)
	}
}

// TestDegradedEngineKeepsItsCorpusSize: an index directory opened with a shard
// quarantined sizes E-values by one base total in every generation, so the
// engine's first write — which gives the view a layer — moves an unchanged
// base hit's E-value by exactly the residues that write added, and nothing
// else.
func TestDegradedEngineKeepsItsCorpusSize(t *testing.T) {
	eng, q := degradedEngine(t)
	search := func() map[string]core.Hit {
		hits := map[string]core.Hit{}
		for _, h := range collectStream(t, eng, q) {
			hits[h.SeqID] = h
		}
		return hits
	}

	before, baseRes := search(), eng.TotalResidues()
	if len(before) == 0 {
		t.Fatal("the query found nothing")
	}
	inserted := seq.Protein.MustEncode("GGGGSSSSPPPPGGGGSSSSPPPP")
	if _, err := eng.Insert("unrelated", inserted); err != nil {
		t.Fatal(err)
	}
	after, afterRes := search(), eng.TotalResidues()
	if afterRes != baseRes+int64(len(inserted)) {
		t.Fatalf("the engine serves %d residues after inserting %d onto %d", afterRes, len(inserted), baseRes)
	}
	scale := float64(afterRes) / float64(baseRes)
	for id, b := range before {
		a, ok := after[id]
		if !ok || a.Score != b.Score {
			t.Fatalf("base hit %s (score %d) became %+v after an unrelated insert", id, b.Score, a)
		}
		if got := a.EValue / b.EValue; math.Abs(got-scale) > 1e-9*scale {
			t.Fatalf("%s: E-value went %g -> %g (x%.6f); the insert grew the corpus x%.6f", id, b.EValue, a.EValue, got, scale)
		}
	}
}

// degradedEngine opens a three-shard index directory with shard 1 truncated
// (quarantined at open under AllowDegraded) and returns a query made of a
// whole surviving sequence, so it finds at least itself.
func degradedEngine(t *testing.T) (*Engine, Query) {
	t.Helper()
	rng := rand.New(rand.NewSource(61))
	db := randomEngineDB(t, rng, seq.Protein, 18, 60)
	dir := filepath.Join(t.TempDir(), "idx")
	if _, _, err := diskst.BuildSharded(dir, db, diskst.ShardedBuildOptions{Shards: 3}); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(dir, "shard-1.oasis"), 16); err != nil {
		t.Fatal(err)
	}
	eng, err := New(nil, Options{IndexDir: dir, AllowDegraded: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	if len(eng.Standing()) != 1 {
		t.Fatalf("%d shards quarantined at open, want 1", len(eng.Standing()))
	}
	var query []byte
	for g := 0; query == nil; g++ {
		if eng.Catalog().SequenceID(g) != "" {
			query = db.Sequence(g).Residues
		}
	}
	scheme := score.MustScheme(score.ByName("PAM30"), -10)
	ka, err := score.Params(scheme.Matrix, nil)
	if err != nil {
		t.Fatal(err)
	}
	return eng, Query{Residues: query, Options: core.Options{Scheme: scheme, MinScore: 8, KA: &ka}}
}

// TestLifetimeStatsKeepCountersOnly: every query over a degraded engine
// reports its shard errors, but the lifetime total Stats returns keeps the
// work counters only — it does not grow by one error per degraded query.
func TestLifetimeStatsKeepCountersOnly(t *testing.T) {
	eng, q := degradedEngine(t)
	const n = 5
	var sum core.Stats
	for i := 0; i < n; i++ {
		st, err := eng.Search(context.Background(), q, func(core.Hit) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		if !st.Degraded || len(st.ShardErrors) != 1 {
			t.Fatalf("query %d: degraded=%v with %d shard errors, want one error", i, st.Degraded, len(st.ShardErrors))
		}
		sum.Add(st)
	}
	lifetime, queries, _ := eng.Stats()
	if queries != n {
		t.Fatalf("%d queries served, want %d", queries, n)
	}
	if lifetime.Degraded || len(lifetime.ShardErrors) != 0 {
		t.Fatalf("lifetime stats carry per-query detail after %d degraded queries: degraded=%v, %d shard errors",
			n, lifetime.Degraded, len(lifetime.ShardErrors))
	}
	if lifetime.ColumnsExpanded != sum.ColumnsExpanded || lifetime.SequencesReported != sum.SequencesReported {
		t.Fatalf("lifetime counters %+v do not sum the queries' %+v", lifetime, sum)
	}
	if got := eng.Metrics().Faults.DegradedQueries; got != n {
		t.Fatalf("%d degraded queries counted, want %d", got, n)
	}
}
