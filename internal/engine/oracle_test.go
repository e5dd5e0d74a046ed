package engine

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/diskst"
	"repro/internal/score"
	"repro/internal/seq"
)

// searchFn is any way of running one query over an opened generation.
type searchFn func(q Query, report func(core.Hit) bool) error

// checkAgainstSW holds one opener of a generation to the paper's contract,
// judged by an oracle that shares no code with the system: Smith-Waterman over
// the sequences that should be live.  The full stream must report exactly the
// oracle's sequences at exactly its scores, in non-increasing order, each
// once, none deleted; a top-k request must return the k strongest of them.
func checkAgainstSW(t *testing.T, label string, search searchFn, live []seq.Sequence, dead map[string]bool, queries []Query) {
	t.Helper()
	liveDB, err := seq.NewDatabase(seq.Protein, live)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		want, err := align.SearchDatabase(liveDB, q.Residues, q.Options.Scheme, align.Options{MinScore: q.Options.MinScore})
		if err != nil {
			t.Fatal(err)
		}
		wantScore := map[string]int{}
		for _, h := range want {
			wantScore[h.SeqID] = h.Score
		}
		for _, k := range []int{0, 3} {
			label := fmt.Sprintf("%s query %d top %d", label, qi, k)
			q.Options.MaxResults = k
			var got []core.Hit
			if err := search(q, func(h core.Hit) bool {
				got = append(got, h)
				return true
			}); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			n := len(want)
			if k > 0 {
				n = min(k, n)
			}
			if len(got) != n {
				t.Fatalf("%s: %d hits, oracle has %d\n got %v\nwant %v", label, len(got), n, hitIDScores(got), wantScore)
			}
			seen := map[string]bool{}
			for i, h := range got {
				if dead[h.SeqID] {
					t.Fatalf("%s: deleted sequence %s reported", label, h.SeqID)
				}
				if seen[h.SeqID] {
					t.Fatalf("%s: sequence %s reported twice", label, h.SeqID)
				}
				seen[h.SeqID] = true
				if s, ok := wantScore[h.SeqID]; !ok || s != h.Score {
					t.Fatalf("%s: %s scored %d, oracle %d (present %v)", label, h.SeqID, h.Score, s, ok)
				}
				// Position i of a non-increasing stream over the right
				// sequences carries the oracle's i-th strongest score.
				if h.Score != want[i].Score {
					t.Fatalf("%s: hit %d scores %d, oracle's %d-th strongest is %d", label, i, h.Score, i, want[i].Score)
				}
			}
		}
	}
}

// TestGenerationOracle drives one engine through random inserts, deletes and
// compactions — tombstones landing in the base shards, in compacted layers and
// in the memtable — and after every step checks every opener of a generation
// against the Smith-Waterman oracle: the live warm engine, memory or disk,
// against everything written so far, and for a disk engine the two ways of
// opening its index directory from outside (a second engine.New, and
// shard.OpenDiskEngine — the path shard servers take) against everything
// compacted so far, which is all the directory promises.  Index directories
// are sequence-partitioned; memory engines run in both partition modes.
func TestGenerationOracle(t *testing.T) {
	scheme := score.MustScheme(score.ByName("PAM30"), -10)
	for _, disk := range []bool{true, false} {
		for _, byPrefix := range []bool{false, true} {
			if disk && byPrefix {
				continue
			}
			for shards := 1; shards <= 3; shards++ {
				name := fmt.Sprintf("prefix=%v/shards=%d", byPrefix, shards)
				if !disk {
					name = "memory/" + name
				}
				t.Run(name, func(t *testing.T) {
					generationOracle(t, scheme, disk, byPrefix, shards)
				})
			}
		}
	}
}

// generationOracle is TestGenerationOracle over one engine configuration.
func generationOracle(t *testing.T, scheme score.Scheme, disk, byPrefix bool, shards int) {
	seed := int64(shards)
	if byPrefix {
		seed += 10
	}
	if !disk {
		seed += 100
	}
	rng := rand.New(rand.NewSource(seed))
	db := randomEngineDB(t, rng, seq.Protein, 6+rng.Intn(6), 50)
	dir := filepath.Join(t.TempDir(), "idx")
	var eng *Engine
	var err error
	if disk {
		if _, _, err := diskst.BuildSharded(dir, db, diskst.ShardedBuildOptions{Shards: shards}); err != nil {
			t.Fatal(err)
		}
		eng, err = New(nil, Options{IndexDir: dir})
	} else {
		eng, err = newMemoryEngine(db, byPrefix, Options{Shards: shards})
	}
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// The model: every sequence ever written, in write order, and
	// which of them are deleted.  memtable holds the IDs not yet
	// compacted; durable* freeze the model at the last compaction.
	all := append([]seq.Sequence(nil), db.Sequences()...)
	dead := map[string]bool{}
	var memtable []string
	liveOf := func(seqs []seq.Sequence, dead map[string]bool) []seq.Sequence {
		var live []seq.Sequence
		for _, s := range seqs {
			if !dead[s.ID] {
				live = append(live, s)
			}
		}
		return live
	}
	durableAll, durableDead := all, map[string]bool{}
	nextID := 0
	insert := func() {
		s := extraSequences(rng, seq.Protein, 1, 50)[0]
		s.ID = fmt.Sprintf("ins%d", nextID)
		nextID++
		if rng.Intn(2) == 0 { // related to an existing sequence, so queries hit both
			src := all[rng.Intn(len(all))].Residues
			s.Residues = append(append([]byte(nil), s.Residues...), src[len(src)/3:]...)
		}
		if _, err := eng.Insert(s.ID, s.Residues); err != nil {
			t.Fatalf("insert %s: %v", s.ID, err)
		}
		all = append(all, s)
		memtable = append(memtable, s.ID)
	}
	remove := func(id string) {
		if _, err := eng.Delete(id); err != nil {
			t.Fatalf("delete %s: %v", id, err)
		}
		dead[id] = true
	}
	compact := func() {
		if _, err := eng.Compact(); err != nil {
			t.Fatalf("compact: %v", err)
		}
		memtable = nil
		durableAll = append([]seq.Sequence(nil), all...)
		durableDead = map[string]bool{}
		for id := range dead {
			durableDead[id] = true
		}
	}
	// pick returns a random live ID among candidates ("" when none,
	// or when it is the last live sequence).
	pick := func(candidates []string) string {
		var ids []string
		for _, id := range candidates {
			if !dead[id] {
				ids = append(ids, id)
			}
		}
		if len(ids) == 0 || len(liveOf(all, dead)) < 3 {
			return ""
		}
		return ids[rng.Intn(len(ids))]
	}
	idsOf := func(seqs []seq.Sequence) []string {
		ids := make([]string, len(seqs))
		for i, s := range seqs {
			ids[i] = s.ID
		}
		return ids
	}

	check := func(step string) {
		live := liveOf(all, dead)
		var queries []Query
		for i := 0; i < 3; i++ {
			// A fragment of a sequence written at some point —
			// live or deleted — so deleted sequences would score.
			src := all[rng.Intn(len(all))].Residues
			n := min(len(src), 5+rng.Intn(14))
			off := rng.Intn(len(src) - n + 1)
			queries = append(queries, Query{
				Residues: src[off : off+n],
				Options:  core.Options{Scheme: scheme, MinScore: 6 + rng.Intn(12)},
			})
		}
		checkAgainstSW(t, step+": warm engine", func(q Query, report func(core.Hit) bool) error {
			_, err := eng.Search(context.Background(), q, report)
			return err
		}, live, dead, queries)
		if !disk {
			return // a memory engine has nothing to reopen
		}

		durableLive := liveOf(durableAll, durableDead)
		reopened, err := New(nil, Options{IndexDir: dir})
		if err != nil {
			t.Fatalf("%s: reopening with engine.New: %v", step, err)
		}
		checkAgainstSW(t, step+": reopened engine.New", func(q Query, report func(core.Hit) bool) error {
			_, err := reopened.Search(context.Background(), q, report)
			return err
		}, durableLive, durableDead, queries)
		if err := reopened.Close(); err != nil {
			t.Fatal(err)
		}
		view, err := openShardView(dir)
		if err != nil {
			t.Fatalf("%s: shard.OpenDiskEngine: %v", step, err)
		}
		checkAgainstSW(t, step+": shard.OpenDiskEngine", func(q Query, report func(core.Hit) bool) error {
			return view.Search(q.Residues, q.Options, report)
		}, durableLive, durableDead, queries)
		if err := view.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// A fixed opening puts a tombstone in each kind of layer, then
	// random steps take over.
	check("pristine")
	insert()
	insert()
	remove(db.Sequences()[0].ID) // tombstone in a base shard
	check("memtable + base tombstone")
	compact()
	check("first compaction")
	insert()
	insert()
	remove(all[len(db.Sequences())].ID) // tombstone in a compacted delta
	remove(memtable[0])                 // tombstone in the memtable
	check("tombstones in delta and memtable")
	compact()
	check("second compaction")
	for step := 0; step < 6; step++ {
		var name string
		switch op := rng.Intn(6); {
		case op < 3:
			insert()
			name = "insert"
		case op < 5:
			id := pick([][]string{idsOf(db.Sequences()), idsOf(all[len(db.Sequences()):]), memtable}[rng.Intn(3)])
			if id == "" {
				continue
			}
			remove(id)
			name = "delete " + id
		default:
			compact()
			name = "compact"
		}
		check(fmt.Sprintf("random step %d (%s)", step, name))
	}
}
