package shard

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/score"
	"repro/internal/seq"
)

// engineProvider adapts a local engine's SearchBounded to the Provider
// interface — slice-local indexes, the engine places them — the in-process
// mirror of what internal/remote does over the wire, which lets the provider
// plumbing be tested without HTTP in the loop.
type engineProvider struct {
	eng  *Engine
	fail error // when set, Stream fails immediately
}

func (p *engineProvider) Stream(query []byte, opts core.Options, hit func(core.Hit) bool, bound func(int) bool) error {
	if p.fail != nil {
		return p.fail
	}
	return p.eng.SearchBounded(query, opts, hit, bound)
}

// TestProviderEngineEquivalence: an engine over in-process providers (each a
// slice of the corpus) must reproduce the multi-shard baseline stream —
// same sequences, scores, ranks — and stay deterministic across runs.
func TestProviderEngineEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	a := seq.DNA
	scheme := score.MustScheme(score.UnitDNA(), -1)
	for trial := 0; trial < 10; trial++ {
		db := randomShardDB(t, rng, a, 8+rng.Intn(20), 80)
		n := db.NumSequences()
		baseline, err := NewEngine(db, Options{Shards: 2 + rng.Intn(3)})
		if err != nil {
			t.Fatal(err)
		}

		// Slice the corpus contiguously into 2-3 provider-backed engines.
		nSlices := 2 + rng.Intn(2)
		if nSlices > n {
			nSlices = n
		}
		set := ProviderSet{Alphabet: a}
		per := n / nSlices
		for s := 0; s < nSlices; s++ {
			lo, hi := s*per, (s+1)*per
			if s == nSlices-1 {
				hi = n
			}
			seqs := make([]seq.Sequence, 0, hi-lo)
			for i := lo; i < hi; i++ {
				seqs = append(seqs, db.Sequence(i))
			}
			sliceDB, err := seq.NewDatabase(a, seqs)
			if err != nil {
				t.Fatal(err)
			}
			sliceEng, err := NewEngine(sliceDB, Options{Shards: 1 + rng.Intn(2)})
			if err != nil {
				t.Fatal(err)
			}
			defer sliceEng.Close()
			set.Providers = append(set.Providers, &engineProvider{eng: sliceEng})
			set.Parts = append(set.Parts, Part{Sequences: sliceDB.NumSequences(), Residues: sliceDB.TotalResidues()})
		}
		pe, err := NewEngineFromProviders(set)
		if err != nil {
			t.Fatal(err)
		}

		query := a.MustEncode("ACGTACGTAC"[:4+rng.Intn(7)])
		opts := core.Options{Scheme: scheme, MinScore: 2}
		want, err := baseline.SearchAll(query, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pe.SearchAll(query, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: provider engine reported %d hits, baseline %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].SeqIndex != want[i].SeqIndex || got[i].Score != want[i].Score || got[i].Rank != want[i].Rank {
				t.Fatalf("trial %d hit %d: got %+v, want %+v", trial, i, got[i], want[i])
			}
		}
		again, err := pe.SearchAll(query, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("trial %d: provider engine stream not reproducible", trial)
		}
		baseline.Close()
		pe.Close()
	}
}

// TestProviderFailureQuarantines: a failing provider degrades the stream
// (non-strict) or fails it (strict), through the standard PR 6 path.
func TestProviderFailureQuarantines(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := seq.DNA
	db := randomShardDB(t, rng, a, 12, 60)
	eng, err := NewEngine(db, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	bad := errors.New("replica set unreachable")
	slice := Part{Sequences: db.NumSequences(), Residues: db.TotalResidues()}
	pe, err := NewEngineFromProviders(ProviderSet{
		Alphabet:  a,
		Providers: []Provider{&engineProvider{eng: eng}, &engineProvider{fail: bad}},
		Parts:     []Part{slice, slice},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pe.Close()

	query := a.MustEncode("ACGTAC")
	opts := core.Options{Scheme: score.MustScheme(score.UnitDNA(), -1), MinScore: 2}
	var st core.Stats
	opts.Stats = &st
	want, err := eng.SearchAll(query, core.Options{Scheme: opts.Scheme, MinScore: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := pe.SearchAll(query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Degraded || len(st.ShardErrors) != 1 {
		t.Fatalf("expected one quarantined provider, got %+v", st)
	}
	if len(got) != len(want) {
		t.Fatalf("degraded stream has %d hits, survivor baseline %d", len(got), len(want))
	}

	strict := core.Options{Scheme: opts.Scheme, MinScore: 2, StrictShards: true}
	if _, err := pe.SearchAll(query, strict); err == nil {
		t.Fatal("strict search over a failing provider must fail")
	}

	// Layers and tombstones have no meaning for provider-backed engines.
	if _, err := pe.WithLayers(nil, map[int]bool{0: true}); err == nil {
		t.Fatal("WithLayers on a provider engine must refuse")
	}
	if _, err := pe.WithLayers(nil, nil); err != nil {
		t.Fatalf("the pristine view of a provider engine must be available: %v", err)
	}
}
