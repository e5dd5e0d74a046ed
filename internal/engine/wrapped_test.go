package engine

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/score"
	"repro/internal/seq"
	"repro/internal/shard"
)

// TestWrappedShardEngine: an engine wrapped around a pre-assembled shard
// engine must serve batches and repeated queries exactly like a normally
// built one, and must refuse writes — a coordinator cannot mutate a corpus
// that lives in the slices' serving processes.
func TestWrappedShardEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	a := seq.Protein
	db := randomEngineDB(t, rng, a, 30, 60)
	scheme := score.MustScheme(score.ByName("PAM30"), -10)

	base, err := shard.NewEngine(db, shard.Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewFromShardEngine(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	plain, err := New(db, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()

	queries := randomQueries(rng, a, 6, scheme)
	gotHits, gotDones := collectBatch(t, len(queries), eng.SubmitBatch(context.Background(), queries))
	wantHits, _ := collectBatch(t, len(queries), plain.SubmitBatch(context.Background(), queries))
	for i := range queries {
		if gotDones[i].Err != nil {
			t.Fatalf("query %d: %v", i, gotDones[i].Err)
		}
		if len(gotHits[i]) != len(wantHits[i]) {
			t.Fatalf("query %d: wrapped engine reported %d hits, plain %d", i, len(gotHits[i]), len(wantHits[i]))
		}
		for j := range gotHits[i] {
			if gotHits[i][j] != wantHits[i][j] {
				t.Fatalf("query %d hit %d: got %+v, want %+v", i, j, gotHits[i][j], wantHits[i][j])
			}
		}
	}

	// Repeating one query streams it again, hit for hit.
	requireIdenticalStream(t, "repeated query", collectStream(t, eng, queries[0]), gotHits[0])

	// Writes must refuse: the corpus is owned elsewhere.
	if _, err := eng.Insert("NEW1", a.MustEncode("DKDGDGCITTKEL")); !errors.Is(err, ErrImmutable) {
		t.Fatalf("Insert on a wrapped engine returned %v, want ErrImmutable", err)
	}
	if _, err := eng.Delete("seq0"); !errors.Is(err, ErrImmutable) {
		t.Fatalf("Delete on a wrapped engine returned %v, want ErrImmutable", err)
	}
	if _, err := eng.Compact(); !errors.Is(err, ErrImmutable) {
		t.Fatalf("Compact on a wrapped engine returned %v, want ErrImmutable", err)
	}

	// Construction options that imply building an index must be rejected.
	if _, err := NewFromShardEngine(nil, Options{}); err == nil {
		t.Fatal("nil shard engine accepted")
	}
	base2, err := shard.NewEngine(db, shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer base2.Close()
	if _, err := NewFromShardEngine(base2, Options{Shards: 4}); err == nil {
		t.Fatal("index-construction options accepted by NewFromShardEngine")
	}
}
