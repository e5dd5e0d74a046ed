package engine

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/diskst"
	"repro/internal/score"
	"repro/internal/seq"
)

// TestSearchBoundedStandingMutableSet drives shard.Engine.SearchBounded on an
// engine reopened from a directory that accumulated compacted delta layers
// and tombstones — what `oasis-serve -shard-server -index-dir` serves after a
// compaction.  The bounded stream must be Search's stream (live corpus:
// compacted inserts present, deleted sequences filtered), its published
// bounds must never increase, and every hit emitted after a bound must score
// at or below it — the contract a coordinator's strict-release merge relies on.
func TestSearchBoundedStandingMutableSet(t *testing.T) {
	scheme := score.MustScheme(score.ByName("PAM30"), -10)
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(41 + shards)))
			db := randomEngineDB(t, rng, seq.Protein, 10, 60)
			dir := filepath.Join(t.TempDir(), "idx")
			if _, _, err := diskst.BuildSharded(dir, db, diskst.ShardedBuildOptions{Shards: shards}); err != nil {
				t.Fatal(err)
			}
			eng, err := New(nil, Options{IndexDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			// Two compactions leave two delta layers; the deletes hit one
			// base and one inserted sequence.
			extras := extraSequences(rng, seq.Protein, 5, 60)
			var script []mutation
			for i, s := range extras {
				script = append(script, mutation{op: "insert", id: s.ID, residues: s.Residues})
				if i == 2 {
					script = append(script, mutation{op: "compact"})
				}
			}
			deleted := []seq.Sequence{db.Sequences()[0], extras[1]}
			for _, s := range deleted {
				script = append(script, mutation{op: "delete", id: s.ID})
			}
			script = append(script, mutation{op: "compact"})
			applyScript(t, eng, db, script)
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}

			reopened, err := openShardView(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			if l, d := len(reopened.Layers()), len(reopened.Tombstones()); l != 2 || d != len(deleted) {
				t.Fatalf("reopened view holds %d delta layers and %d tombstones, want 2 and %d", l, d, len(deleted))
			}

			// Whole sequences as queries guarantee hits from a base shard, a
			// delta layer and (were they not filtered) both deleted sequences.
			queries := randomQueries(rng, seq.Protein, 4, scheme)
			for _, s := range []seq.Sequence{db.Sequences()[1], extras[3], deleted[0], deleted[1]} {
				queries = append(queries, Query{
					Residues: s.Residues,
					Options:  core.Options{Scheme: scheme, MinScore: 8},
				})
			}
			for qi, q := range queries {
				want, err := reopened.SearchAll(q.Residues, q.Options)
				if err != nil {
					t.Fatalf("query %d: Search: %v", qi, err)
				}
				var got []core.Hit
				bound, bounded := 0, false
				err = reopened.SearchBounded(q.Residues, q.Options, func(h core.Hit) bool {
					if bounded && h.Score > bound {
						t.Errorf("query %d: hit %s scores %d after bound %d", qi, h.SeqID, h.Score, bound)
					}
					got = append(got, h)
					return true
				}, func(b int) bool {
					if bounded && b > bound {
						t.Errorf("query %d: bound rose from %d to %d", qi, bound, b)
					}
					bound, bounded = b, true
					return true
				})
				if err != nil {
					t.Fatalf("query %d: SearchBounded: %v", qi, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("query %d: SearchBounded stream differs from Search:\n got %+v\nwant %+v", qi, got, want)
				}
				for _, h := range got {
					if h.SeqID == deleted[0].ID || h.SeqID == deleted[1].ID {
						t.Fatalf("query %d: deleted sequence %s resurfaced", qi, h.SeqID)
					}
				}
				if live := map[int]string{4: db.Sequences()[1].ID, 5: extras[3].ID}[qi]; live != "" {
					found := false
					for _, h := range got {
						found = found || h.SeqID == live
					}
					if !found {
						t.Fatalf("query %d: live sequence %s queried whole did not find itself", qi, live)
					}
				}
			}
		})
	}
}
