package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/score"
	"repro/internal/seq"
)

// cancelTestWorkload builds a protein workload whose hit-less sweep (minScore
// just above the best achievable score) still expands plenty of DP columns —
// the regime where pre-poll searches ignored their context entirely.
func cancelTestWorkload(t *testing.T) (*MemoryIndex, []byte, score.Scheme, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	letters := seq.Protein.Letters()
	randStr := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = letters[rng.Intn(len(letters))]
		}
		return string(b)
	}
	// Embed MUTATED copies of the motif only: near-misses force deep DP
	// exploration, while the clean query never reaches a perfect-match score
	// — so minScore can sit strictly between the best achievable score and
	// the root heuristic bound, keeping the hit-less sweep busy.
	motif := randStr(32)
	mutate := func(s string) string {
		b := []byte(s)
		for k := 0; k < 12; k++ {
			b[rng.Intn(len(b))] = letters[rng.Intn(len(letters))]
		}
		return string(b)
	}
	strs := make([]string, 80)
	for i := range strs {
		s := randStr(150 + rng.Intn(100))
		pos := rng.Intn(len(s))
		strs[i] = s[:pos] + mutate(motif) + s[pos:]
	}
	db, err := seq.DatabaseFromStrings(seq.Protein, strs...)
	if err != nil {
		t.Fatal(err)
	}
	idx := memIndex(t, db)
	scheme := score.MustScheme(score.ByName("PAM30"), -10)
	query := seq.Protein.MustEncode(motif)

	// The best achievable score caps what any sweep can report; minScore
	// one above it makes every search hit-less.
	top := 0
	hits, err := SearchAll(idx, query, Options{Scheme: scheme, MinScore: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) > 0 {
		top = hits[0].Score
	}
	return idx, query, scheme, top + 1
}

// TestContextCancelsHitlessSearchPromptly pins the fix for cancellation only
// being observed at hit callbacks: a search with a cancelled context must
// return the context error within cancelPollColumns DP columns even when it
// never reports a hit.
func TestContextCancelsHitlessSearchPromptly(t *testing.T) {
	idx, query, scheme, minScore := cancelTestWorkload(t)

	var base Stats
	err := Search(idx, query, Options{Scheme: scheme, MinScore: minScore, Stats: &base},
		func(Hit) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if base.SequencesReported != 0 {
		t.Fatalf("workload is not hit-less: %d sequences reported", base.SequencesReported)
	}
	if base.ColumnsExpanded < 8*cancelPollColumns {
		t.Fatalf("workload too small to be meaningful: only %d columns expanded", base.ColumnsExpanded)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var st Stats
	err = Search(idx, query, Options{
		Scheme: scheme, MinScore: minScore, Stats: &st, Context: ctx,
	}, func(Hit) bool { return true })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled hit-less search returned %v, want context.Canceled", err)
	}
	if st.SequencesReported != 0 {
		t.Fatalf("cancelled search reported %d sequences", st.SequencesReported)
	}
	// The first poll fires after exactly cancelPollColumns columns; nothing
	// is swept past it, a small fraction of the full run.
	if st.ColumnsExpanded > cancelPollColumns {
		t.Fatalf("cancelled search expanded %d columns (full run: %d), want <= %d",
			st.ColumnsExpanded, base.ColumnsExpanded, cancelPollColumns)
	}
}

// TestContextPollingDoesNotChangeResults runs the same query with and without
// an (uncancelled) context and requires byte-identical hit streams and work
// counters: the poll splits kernel calls every cancelPollColumns columns.
func TestContextPollingDoesNotChangeResults(t *testing.T) {
	idx, query, scheme, _ := cancelTestWorkload(t)
	opts := Options{Scheme: scheme, MinScore: 20}
	var plainStats Stats
	opts.Stats = &plainStats
	plain, err := SearchAll(idx, query, opts)
	if err != nil {
		t.Fatal(err)
	}
	var polledStats Stats
	polled, err := SearchAll(idx, query, Options{
		Scheme: scheme, MinScore: 20, Stats: &polledStats,
		Context: context.Background(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(polled) {
		t.Fatalf("polling changed the hit count: %d vs %d", len(plain), len(polled))
	}
	for i := range plain {
		if plain[i] != polled[i] {
			t.Fatalf("hit %d differs: %+v vs %+v", i, plain[i], polled[i])
		}
	}
	if !reflect.DeepEqual(plainStats, polledStats) {
		t.Fatalf("polling changed the work counters:\n plain: %+v\npolled: %+v", plainStats, polledStats)
	}
	if plainStats.ColumnsExpanded <= cancelPollColumns {
		t.Fatalf("only %d columns expanded: the poll never split a kernel call", plainStats.ColumnsExpanded)
	}
}
