package oasis

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/remote"
	"repro/internal/seq"
	"repro/internal/shard"
)

// TestOpenCoordinator: the public coordinator engine over two in-process
// slice servers must reproduce a local engine's stream over the concatenated
// corpus — whole hits: same sequences, scores, ranks and E-values — and must
// refuse writes.
func TestOpenCoordinator(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	a := Protein
	letters := a.Letters()
	randStr := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = letters[rng.Intn(len(letters))]
		}
		return string(b)
	}
	strs := make([]string, 24)
	for i := range strs {
		s := randStr(20 + rng.Intn(50))
		if i%2 == 0 {
			s += "DKDGDGCITTKEL"
		}
		strs[i] = s
	}
	db, err := seq.DatabaseFromStrings(a, strs...)
	if err != nil {
		t.Fatal(err)
	}

	// Two sequence-disjoint slices, each its own shard engine behind the wire
	// protocol.
	var slices [][]string
	var servers []*httptest.Server
	cut := len(strs) / 2
	for _, span := range [][2]int{{0, cut}, {cut, len(strs)}} {
		seqs := make([]seq.Sequence, 0, span[1]-span[0])
		for i := span[0]; i < span[1]; i++ {
			seqs = append(seqs, db.Sequence(i))
		}
		sliceDB, err := seq.NewDatabase(a, seqs)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := shard.NewEngine(sliceDB, shard.Options{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		srv := httptest.NewServer(remote.NewServer(eng))
		defer srv.Close()
		servers = append(servers, srv)
		slices = append(slices, []string{srv.URL})
	}

	co, err := OpenCoordinator(context.Background(),
		CoordinatorOptions{Slices: slices}, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	local, err := NewEngine(db, EngineOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	if got, want := co.Engine().NumSequences(), db.NumSequences(); got != want {
		t.Fatalf("coordinator serves %d sequences, corpus has %d", got, want)
	}
	if got, want := co.Engine().TotalResidues(), db.TotalResidues(); got != want {
		t.Fatalf("coordinator serves %d residues, corpus has %d", got, want)
	}
	if infos := co.Infos(); len(infos) != 2 || infos[0].Sequences != cut {
		t.Fatalf("unexpected slice infos: %+v", infos)
	}

	query := a.MustEncode("DKDGDGCITTKEL")
	opts, err := NewSearchOptionsSized(MustScheme(t), db.TotalResidues(), query, WithEValue(20000))
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.SearchAll(context.Background(), query, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := co.Engine().SearchAll(context.Background(), query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("coordinator reported %d hits, local engine %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("hit %d: got %+v, want %+v", i, got[i], want[i])
		}
	}

	// Health covers both slices, all replicas up after a served query.
	health := co.Health()
	if len(health) != 2 {
		t.Fatalf("expected 2 slice health entries, got %d", len(health))
	}
	for _, sh := range health {
		for _, r := range sh.Replicas {
			if r.State != "up" {
				t.Fatalf("replica %s is %q after a clean query", r.Addr, r.State)
			}
		}
	}
	if m := co.RemoteMetrics(); m.Streams == 0 || m.Attempts == 0 {
		t.Fatalf("fan-out metrics not counted: %+v", m)
	}

	// The coordinator cannot mutate a corpus owned by the slice servers.
	if _, err := co.Engine().Insert("NEW", query); err == nil || !strings.Contains(err.Error(), "immutable") {
		t.Fatalf("Insert on a coordinator engine returned %v", err)
	}
}

// MustScheme builds the PAM30/-10 scheme used across the public tests.
func MustScheme(t *testing.T) Scheme {
	t.Helper()
	s, err := NewScheme(MatrixByName("PAM30"), -10)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
