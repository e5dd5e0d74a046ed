package shard

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/score"
	"repro/internal/seq"
)

// buildExtraCase splits a random corpus into a base engine plus delta
// sequences (global indexes appended after the base) and a tombstone subset,
// and returns the matching live (rebuilt-from-scratch) database.
type extraCase struct {
	view     *Engine
	liveDB   *seq.Database
	liveIDs  map[string]bool
	tombIdx  map[int]bool
	numBase  int
	numDelta int
}

func buildExtraCase(t *testing.T, rng *rand.Rand, shards int) *extraCase {
	t.Helper()
	full := randomShardDB(t, rng, seq.Protein, 8+rng.Intn(10), 60)
	all := full.Sequences()
	nBase := 1 + rng.Intn(len(all)-1)
	baseDB := seq.MustDatabase(seq.Protein, all[:nBase])
	base, err := NewEngine(baseDB, Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	deltaSeqs := all[nBase:]
	tomb := map[int]bool{}
	for g := 0; g < len(all); g++ {
		if rng.Intn(4) == 0 {
			tomb[g] = true
		}
	}
	var live []seq.Sequence
	liveIDs := map[string]bool{}
	var liveRes int64
	for g, s := range all {
		if !tomb[g] {
			live = append(live, s)
			liveIDs[s.ID] = true
			liveRes += int64(len(s.Residues))
		}
	}
	var layers []core.Index
	if len(deltaSeqs) > 0 {
		deltaDB := seq.MustDatabase(seq.Protein, deltaSeqs)
		idx, err := core.BuildMemoryIndex(deltaDB)
		if err != nil {
			t.Fatal(err)
		}
		layers = append(layers, idx)
	}
	view, err := base.WithLayers(layers, tomb)
	if err != nil {
		t.Fatal(err)
	}
	// The view derives its totals itself; they must be the live corpus's.
	if view.NumSequences() != len(all) || view.LiveSequences() != len(live) || view.LiveResidues() != liveRes {
		t.Fatalf("view totals: %d sequences, %d live, %d live residues; want %d, %d, %d",
			view.NumSequences(), view.LiveSequences(), view.LiveResidues(), len(all), len(live), liveRes)
	}
	return &extraCase{
		view:    view,
		liveDB:  seq.MustDatabase(seq.Protein, live),
		liveIDs: liveIDs, tombIdx: tomb,
		numBase: nBase, numDelta: len(deltaSeqs),
	}
}

// TestViewEquivalence: across random corpora, shard counts
// and tombstone subsets, a (base + delta + tombstones) view must produce the
// same (sequence, score, E-value) multiset in non-increasing score order as a
// plain engine rebuilt over the live corpus.
func TestViewEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(733))
	scheme := score.MustScheme(score.ByName("PAM30"), -10)
	for trial := 0; trial < 30; trial++ {
		shards := 1 + rng.Intn(4)
		c := buildExtraCase(t, rng, shards)
		rebuilt, err := NewEngine(c.liveDB, Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		query := []byte(nil)
		for len(query) == 0 {
			s := c.liveDB.Sequence(rng.Intn(c.liveDB.NumSequences()))
			if len(s.Residues) > 0 {
				n := 4 + rng.Intn(12)
				if n > len(s.Residues) {
					n = len(s.Residues)
				}
				off := rng.Intn(len(s.Residues) - n + 1)
				query = s.Residues[off : off+n]
			}
		}
		opts := core.Options{Scheme: scheme, MinScore: 10 + rng.Intn(15)}
		var got []core.Hit
		if err := c.view.Search(query, opts, func(h core.Hit) bool {
			got = append(got, h)
			return true
		}); err != nil {
			t.Fatalf("trial %d: view search: %v", trial, err)
		}
		want, err := rebuilt.SearchAll(query, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkOrderAndRanks(t, got, "extra")
		for _, h := range got {
			if c.tombIdx[h.SeqIndex] {
				t.Fatalf("trial %d: tombstoned sequence %d (%s) leaked into the stream", trial, h.SeqIndex, h.SeqID)
			}
			if !c.liveIDs[h.SeqID] {
				t.Fatalf("trial %d: hit for unknown sequence %q", trial, h.SeqID)
			}
		}
		// SeqIndex values differ between the two numberings; compare by ID.
		type k struct {
			id    string
			score int
		}
		gm, wm := map[k]int{}, map[k]int{}
		for _, h := range got {
			gm[k{h.SeqID, h.Score}]++
		}
		for _, h := range want {
			wm[k{h.SeqID, h.Score}]++
		}
		if len(gm) != len(wm) {
			t.Fatalf("trial %d (shards=%d): %d distinct hits vs rebuilt %d", trial, shards, len(gm), len(wm))
		}
		for kk, n := range wm {
			if gm[kk] != n {
				t.Fatalf("trial %d: hit %v count %d vs rebuilt %d", trial, kk, gm[kk], n)
			}
		}
	}
}

// TestEmptyViewIsPlainSearch: a view with no layers and no tombstones must be
// exactly the engine it was taken from, including on the single-shard fast
// path, and must share its parent's pools and counters rather than copy them.
func TestEmptyViewIsPlainSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	db := randomShardDB(t, rng, seq.Protein, 10, 50)
	eng, err := NewEngine(db, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	scheme := score.MustScheme(score.ByName("PAM30"), -10)
	query := db.Sequence(0).Residues
	if len(query) > 12 {
		query = query[:12]
	}
	opts := core.Options{Scheme: scheme, MinScore: 12}
	want, err := eng.SearchAll(query, opts)
	if err != nil {
		t.Fatal(err)
	}
	view, err := eng.WithLayers(nil, map[int]bool{})
	if err != nil {
		t.Fatal(err)
	}
	before := eng.ScratchStats()
	got, err := view.SearchAll(query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("empty view: %d hits vs %d from Search", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("empty view: hit %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
	if after := eng.ScratchStats(); after.Gets != before.Gets+1 || after.Reuses != before.Reuses+1 {
		t.Fatalf("view search did not draw from its parent's warm scratch pool: %+v -> %+v", before, after)
	}
}

// TestMergerLiveSequenceEarlyStop is the satellite regression for the
// all-sequences early stop: with one sequence tombstoned, the stop count must
// be the LIVE sequence count — against the static global count the merger
// would never trigger the stop (cancelled stays false) and every shard would
// run to completion.
func TestMergerLiveSequenceEarlyStop(t *testing.T) {
	bounds := []int{100, 100}
	var emitted []core.Hit
	m := newMerger(bounds, core.Options{}, 1000, 10, func(h core.Hit) bool {
		emitted = append(emitted, h)
		return true
	})
	m.drop = map[int]bool{1: true}
	m.stopAt = 2 // live sequences: 3 global minus 1 tombstone
	events := make(chan event, 16)
	var cancelled atomic.Bool
	events <- event{shard: 1, kind: evBound, bound: 0}
	events <- event{shard: 0, kind: evHit, hit: core.Hit{SeqIndex: 0, Score: 90}}
	events <- event{shard: 0, kind: evHit, hit: core.Hit{SeqIndex: 1, Score: 80}}
	events <- event{shard: 0, kind: evHit, hit: core.Hit{SeqIndex: 2, Score: 70}}
	events <- event{shard: 0, kind: evDone}
	events <- event{shard: 1, kind: evDone}
	if err := m.run(events, &cancelled); err != nil {
		t.Fatal(err)
	}
	if len(emitted) != 2 || emitted[0].SeqIndex != 0 || emitted[1].SeqIndex != 2 {
		t.Fatalf("emitted %+v, want live sequences 0 and 2", emitted)
	}
	if !cancelled.Load() {
		t.Fatal("all live sequences emitted but the early stop never cancelled the shards (stop count not derived from live sequences)")
	}
}

// TestViewDeleteTerminates: engine-level version of the regression —
// delete one sequence from a 3-shard corpus where every sequence
// matches, and assert the merged stream still terminates with exactly the
// live sequences.
func TestViewDeleteTerminates(t *testing.T) {
	motif := "DKDGDGCITTKELGTV"
	strs := make([]string, 6)
	for i := range strs {
		strs[i] = "AAAA" + motif + "GGGG"
	}
	db, err := seq.DatabaseFromStrings(seq.Protein, strs...)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(db, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	scheme := score.MustScheme(score.ByName("PAM30"), -10)
	view, err := eng.WithLayers(nil, map[int]bool{2: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := view.SearchAll([]byte(seq.Protein.MustEncode(motif)), core.Options{Scheme: scheme, MinScore: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != db.NumSequences()-1 {
		t.Fatalf("got %d hits, want %d live sequences", len(got), db.NumSequences()-1)
	}
	for _, h := range got {
		if h.SeqIndex == 2 {
			t.Fatal("deleted sequence leaked into the stream")
		}
	}
}

// TestSequencesReportedCountsDeliveredHits: on a truncated multi-stream query
// the streams together report more hits than the merger releases (each runs
// until cancelled), so the merged Stats must count the hits the caller got.
// Both views run on a 2-shard engine where every sequence hits at one score:
// the pristine one gives each stream a budget of MaxResults hits, the
// tombstoned one gives it none.
func TestSequencesReportedCountsDeliveredHits(t *testing.T) {
	motif := "DKDGDGCITTKELGTV"
	strs := make([]string, 12)
	for i := range strs {
		strs[i] = "AAAA" + motif + "GGGG"
	}
	db, err := seq.DatabaseFromStrings(seq.Protein, strs...)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(db, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	tombed, err := eng.WithLayers(nil, map[int]bool{1: true})
	if err != nil {
		t.Fatal(err)
	}
	query := seq.Protein.MustEncode(motif)
	scheme := score.MustScheme(score.ByName("PAM30"), -10)
	for name, view := range map[string]*Engine{"pristine": eng, "tombstone": tombed} {
		for rep := 0; rep < 20; rep++ {
			var st core.Stats
			hits, err := view.SearchAll(query, core.Options{Scheme: scheme, MinScore: 20, MaxResults: 3, Stats: &st})
			if err != nil {
				t.Fatal(err)
			}
			if len(hits) != 3 || st.SequencesReported != int64(len(hits)) {
				t.Fatalf("%s rep %d: %d hits delivered, SequencesReported %d", name, rep, len(hits), st.SequencesReported)
			}
		}
	}
}
