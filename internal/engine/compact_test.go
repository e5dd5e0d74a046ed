package engine

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/diskst"
	"repro/internal/score"
	"repro/internal/seq"
)

// compactTestEngine opens a two-shard engine over db: a disk engine over a
// fresh index directory (returned), or a memory engine, byPrefix building it
// through the deprecated shard.Options.Partition (see newMemoryEngine).  Each
// reports the same stream on every run, so callers may compare streams byte
// for byte.
func compactTestEngine(t testing.TB, db *seq.Database, disk, byPrefix bool) (*Engine, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "idx")
	var eng *Engine
	var err error
	if disk {
		if _, _, err := diskst.BuildSharded(dir, db, diskst.ShardedBuildOptions{Shards: 2}); err != nil {
			t.Fatal(err)
		}
		eng, err = New(nil, Options{IndexDir: dir})
	} else {
		eng, err = newMemoryEngine(db, byPrefix, Options{Shards: 2})
	}
	if err != nil {
		t.Fatal(err)
	}
	return eng, dir
}

// TestCompactionIsInvisible holds Compact to changing nothing a reader can
// see.  Over a corpus with a compacted layer, a memtable and a tombstone in
// each, the hit streams of a fixed query set — full and top-3, with E-values —
// must be the same before the compaction, after it and (disk engines) after
// reopening the directory: whole hits, so sequence, global index, score, rank
// and E-value.
func TestCompactionIsInvisible(t *testing.T) {
	scheme := score.MustScheme(score.ByName("PAM30"), -10)
	ka, err := score.Params(scheme.Matrix, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, disk := range []bool{false, true} {
		for _, byPrefix := range []bool{false, true} {
			if disk && byPrefix {
				continue // index directories are sequence-partitioned
			}
			t.Run(fmt.Sprintf("disk=%v/prefix=%v", disk, byPrefix), func(t *testing.T) {
				rng := rand.New(rand.NewSource(71))
				db := randomEngineDB(t, rng, seq.Protein, 12, 60)
				eng, dir := compactTestEngine(t, db, disk, byPrefix)
				defer func() { eng.Close() }()
				extras := extraSequences(rng, seq.Protein, 8, 60)
				for i, s := range extras {
					if i%2 == 0 { // related to a base sequence, so queries hit both
						src := db.Sequences()[i].Residues
						s.Residues = append(s.Residues, src[len(src)/3:]...)
					}
					if _, err := eng.Insert(s.ID, s.Residues); err != nil {
						t.Fatal(err)
					}
					if i == 3 {
						if _, err := eng.Compact(); err != nil {
							t.Fatal(err)
						}
					}
				}
				for _, id := range []string{db.Sequences()[1].ID, extras[1].ID, extras[6].ID} {
					if _, err := eng.Delete(id); err != nil {
						t.Fatal(err)
					}
				}
				var queries []Query
				for _, s := range append(db.Sequences()[:4:4], extras...) {
					for _, top := range []int{0, 3} {
						queries = append(queries, Query{
							Residues: s.Residues[:min(len(s.Residues), 14)],
							Options:  core.Options{Scheme: scheme, MinScore: 8, KA: &ka, MaxResults: top},
						})
					}
				}
				streams := func(e *Engine) [][]core.Hit {
					out := make([][]core.Hit, len(queries))
					for i, q := range queries {
						out[i] = collectStream(t, e, q)
					}
					return out
				}
				requireSame := func(when string, got, want [][]core.Hit) {
					t.Helper()
					for i := range want {
						requireIdenticalStream(t, fmt.Sprintf("%s, query %d", when, i), got[i], want[i])
					}
				}

				before := streams(eng)
				if len(slices.Concat(before...)) < len(queries) {
					t.Fatalf("the query set finds only %d hits", len(slices.Concat(before...)))
				}
				if gen, err := eng.Compact(); err != nil || eng.Metrics().Mutable.MemtableSequences != 0 {
					t.Fatalf("compact: generation %d, %v, memtable %+v", gen, err, eng.Metrics().Mutable)
				}
				requireSame("after Compact", streams(eng), before)
				if !disk {
					return
				}
				if err := eng.Close(); err != nil {
					t.Fatal(err)
				}
				if eng, err = New(nil, Options{IndexDir: dir}); err != nil {
					t.Fatal(err)
				}
				requireSame("after reopening", streams(eng), before)
			})
		}
	}
}

// TestCompactPublishesFirst covers the one way the published memtable index
// can lag the memtable — a publish that failed after its insert: compaction
// publishes before it seals, so the sequence is neither lost nor left behind.
func TestCompactPublishesFirst(t *testing.T) {
	for _, disk := range []bool{false, true} {
		t.Run(fmt.Sprintf("disk=%v", disk), func(t *testing.T) {
			rng := rand.New(rand.NewSource(73))
			eng, _ := compactTestEngine(t, randomEngineDB(t, rng, seq.Protein, 6, 40), disk, false)
			defer eng.Close()
			if _, err := eng.Insert("published", seq.Protein.MustEncode("AAWWWWHHHHWWWWAA")); err != nil {
				t.Fatal(err)
			}
			// What Insert does up to a publish that fails.
			eng.wmu.Lock()
			res := seq.Protein.MustEncode("CCWWWWHHHHWWWWCC")
			eng.mem = append(eng.mem, seq.Sequence{ID: "unpublished", Residues: res})
			eng.memRes += int64(len(res))
			eng.wmu.Unlock()
			if _, err := eng.Compact(); err != nil {
				t.Fatal(err)
			}
			scheme := score.MustScheme(score.ByName("PAM30"), -10)
			got := map[string]bool{}
			for _, h := range collectStream(t, eng, Query{Residues: seq.Protein.MustEncode("WWWWHHHHWWWW"), Options: core.Options{Scheme: scheme, MinScore: 40}}) {
				got[h.SeqID] = true
			}
			if m := eng.Metrics().Mutable; !got["published"] || !got["unpublished"] || m.MemtableSequences != 0 || m.DeltaLayers != 1 {
				t.Fatalf("after compaction: hits %v, mutable state %+v", got, m)
			}
		})
	}
}

// BenchmarkCompact times Compact alone, the starting number for a layer merge
// (ROADMAP direction 3(b)).  disk: a 50-sequence memtable, 200–500 residues
// each, written to a one-shard index directory, one more delta layer per
// iteration.  memory: 500 inserts of 20–80 residues over a fresh engine of
// 1,000 base sequences per iteration.  Filling a memtable is left out of
// ns/op but not out of the run time, so give the benchmark a fixed count:
//
//	go test ./internal/engine -run xxx -bench Compact -benchtime 10x
func BenchmarkCompact(b *testing.B) {
	rng := rand.New(rand.NewSource(79))
	letters := seq.Protein.Letters()
	sequences := func(prefix string, n, minLen, maxLen int) []seq.Sequence {
		out := make([]seq.Sequence, n)
		for i := range out {
			r := make([]byte, minLen+rng.Intn(maxLen-minLen+1))
			for j := range r {
				r[j] = letters[rng.Intn(len(letters))]
			}
			out[i] = seq.Sequence{ID: fmt.Sprintf("%s%d", prefix, i), Residues: seq.Protein.MustEncode(string(r))}
		}
		return out
	}
	fill := func(b *testing.B, eng *Engine, seqs []seq.Sequence) *Engine {
		for _, s := range seqs {
			if _, err := eng.Insert(s.ID, s.Residues); err != nil {
				b.Fatal(err)
			}
		}
		return eng
	}
	// compactEach times Compact on the engine next returns, b.N times.
	compactEach := func(b *testing.B, next func(i int) *Engine) {
		var spent time.Duration
		for i := 0; i < b.N; i++ {
			eng := next(i)
			start := time.Now()
			if _, err := eng.Compact(); err != nil {
				b.Fatal(err)
			}
			spent += time.Since(start)
		}
		b.ReportMetric(float64(spent.Nanoseconds())/float64(b.N), "ns/op")
	}
	b.Run("disk", func(b *testing.B) {
		db, err := seq.NewDatabase(seq.Protein, sequences("base", 200, 200, 500))
		if err != nil {
			b.Fatal(err)
		}
		dir := filepath.Join(b.TempDir(), "idx")
		if _, _, err := diskst.BuildSharded(dir, db, diskst.ShardedBuildOptions{Shards: 1}); err != nil {
			b.Fatal(err)
		}
		eng, err := New(nil, Options{IndexDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		defer eng.Close()
		compactEach(b, func(i int) *Engine {
			return fill(b, eng, sequences(fmt.Sprintf("ins%d-", i), 50, 200, 500))
		})
	})
	b.Run("memory", func(b *testing.B) {
		db, err := seq.NewDatabase(seq.Protein, sequences("base", 1000, 100, 300))
		if err != nil {
			b.Fatal(err)
		}
		var eng *Engine
		compactEach(b, func(int) *Engine {
			if eng != nil {
				eng.Close()
			}
			if eng, err = New(db, Options{}); err != nil {
				b.Fatal(err)
			}
			return fill(b, eng, sequences("ins", 500, 20, 80))
		})
		eng.Close()
	})
}
