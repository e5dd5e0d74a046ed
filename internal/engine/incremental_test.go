package engine

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/diskst"
	"repro/internal/faultpoint"
	"repro/internal/score"
	"repro/internal/seq"
)

// hitIDScores projects a hit stream to a (SeqID, Score) multiset.  Incremental
// engines and from-scratch rebuilds number sequences differently (tombstoned
// slots keep their global index), so SeqIndex-keyed
// comparison helpers from cache_test do not apply across them.
func hitIDScores(hits []core.Hit) map[string]int {
	out := map[string]int{}
	for _, h := range hits {
		out[fmt.Sprintf("%s/%d", h.SeqID, h.Score)]++
	}
	return out
}

func requireSameIDScores(t *testing.T, label string, got, want []core.Hit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d hits, want %d\n got %v\nwant %v", label, len(got), len(want), hitIDScores(got), hitIDScores(want))
	}
	g, w := hitIDScores(got), hitIDScores(want)
	for k, n := range w {
		if g[k] != n {
			t.Fatalf("%s: hit %s count %d, want %d", label, k, g[k], n)
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i].Score > got[i-1].Score {
			t.Fatalf("%s: score order violated at %d", label, i)
		}
	}
}

// mutation is one step of a randomized write script.
type mutation struct {
	op string // "insert", "delete", "compact"
	id string
	// residues for inserts.
	residues []byte
}

// randomScript builds a write script over a base database: every extra
// sequence is inserted, interleaved with deletes of random live sequences
// (base or freshly inserted) and occasional compactions.  At least one
// sequence always stays live.
func randomScript(rng *rand.Rand, base *seq.Database, extras []seq.Sequence) []mutation {
	live := map[string][]byte{}
	for _, s := range base.Sequences() {
		live[s.ID] = s.Residues
	}
	var script []mutation
	for _, s := range extras {
		script = append(script, mutation{op: "insert", id: s.ID, residues: s.Residues})
		live[s.ID] = s.Residues
		if rng.Intn(3) == 0 && len(live) > 1 {
			ids := make([]string, 0, len(live))
			for id := range live {
				ids = append(ids, id)
			}
			victim := ids[rng.Intn(len(ids))]
			script = append(script, mutation{op: "delete", id: victim})
			delete(live, victim)
		}
		if rng.Intn(4) == 0 {
			script = append(script, mutation{op: "compact"})
		}
	}
	return script
}

// applyScript drives the script through the engine and returns the live
// sequences in global-numbering order (base order, then insertion order,
// minus deletions) for the reference rebuild.
func applyScript(t *testing.T, eng *Engine, base *seq.Database, script []mutation) []seq.Sequence {
	t.Helper()
	order := append([]seq.Sequence(nil), base.Sequences()...)
	dead := map[string]bool{}
	for _, m := range script {
		switch m.op {
		case "insert":
			if _, err := eng.Insert(m.id, m.residues); err != nil {
				t.Fatalf("insert %s: %v", m.id, err)
			}
			order = append(order, seq.Sequence{ID: m.id, Residues: m.residues})
		case "delete":
			if _, err := eng.Delete(m.id); err != nil {
				t.Fatalf("delete %s: %v", m.id, err)
			}
			dead[m.id] = true
		case "compact":
			if _, err := eng.Compact(); err != nil {
				t.Fatalf("compact: %v", err)
			}
		}
	}
	var liveSeqs []seq.Sequence
	for _, s := range order {
		if !dead[s.ID] {
			liveSeqs = append(liveSeqs, s)
		}
	}
	return liveSeqs
}

func extraSequences(rng *rand.Rand, a *seq.Alphabet, n, maxLen int) []seq.Sequence {
	letters := a.Letters()
	out := make([]seq.Sequence, n)
	for i := range out {
		b := make([]byte, 1+rng.Intn(maxLen))
		for j := range b {
			b[j] = letters[rng.Intn(len(letters))]
		}
		out[i] = seq.Sequence{ID: fmt.Sprintf("new%d", i), Residues: a.MustEncode(string(b))}
	}
	return out
}

// TestIncrementalEquivalence is the headline correctness property of the
// mutable layer: after a random script of inserts, deletes and compactions,
// an incremental engine must report exactly the hit streams of an engine
// rebuilt from scratch over the surviving sequences — across in-memory bases
// in both partition modes and disk-backed (IndexDir) bases.
func TestIncrementalEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	scheme := score.MustScheme(score.ByName("PAM30"), -10)
	configs := []struct {
		name   string
		shards int
		prefix bool
		disk   bool
	}{
		{"memory/seq/1", 1, false, false},
		{"memory/seq/3", 3, false, false},
		{"memory/prefix/3", 3, true, false},
		{"disk/seq/2", 2, false, true},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			for trial := 0; trial < 3; trial++ {
				db := randomEngineDB(t, rng, seq.Protein, 8+rng.Intn(10), 60)
				extras := extraSequences(rng, seq.Protein, 4+rng.Intn(5), 60)
				script := randomScript(rng, db, extras)

				var eng *Engine
				var err error
				if cfg.disk {
					dir := filepath.Join(t.TempDir(), "idx")
					if _, _, err := diskst.BuildSharded(dir, db, diskst.ShardedBuildOptions{Shards: cfg.shards}); err != nil {
						t.Fatal(err)
					}
					eng, err = New(nil, Options{IndexDir: dir})
				} else {
					eng, err = newMemoryEngine(db, cfg.prefix, Options{Shards: cfg.shards})
				}
				if err != nil {
					t.Fatal(err)
				}
				liveSeqs := applyScript(t, eng, db, script)

				refDB, err := seq.NewDatabase(seq.Protein, liveSeqs)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := New(refDB, Options{Shards: 1})
				if err != nil {
					t.Fatal(err)
				}
				for qi, q := range randomQueries(rng, seq.Protein, 6, scheme) {
					label := fmt.Sprintf("%s trial %d query %d", cfg.name, trial, qi)
					requireSameIDScores(t, label, collectStream(t, eng, q), collectStream(t, ref, q))
				}
				if err := eng.Close(); err != nil {
					t.Fatal(err)
				}
				if err := ref.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestIncrementalDiskReopen verifies compaction durability: deltas and
// tombstones written by one engine are served by a fresh engine opening the
// same directory, and the directory passes a full scrub.
func TestIncrementalDiskReopen(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	scheme := score.MustScheme(score.ByName("PAM30"), -10)
	db := randomEngineDB(t, rng, seq.Protein, 10, 60)
	dir := filepath.Join(t.TempDir(), "idx")
	if _, _, err := diskst.BuildSharded(dir, db, diskst.ShardedBuildOptions{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	eng, err := New(nil, Options{IndexDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	extras := extraSequences(rng, seq.Protein, 5, 60)
	script := randomScript(rng, db, extras)
	script = append(script, mutation{op: "compact"})
	liveSeqs := applyScript(t, eng, db, script)
	genBefore := eng.Generation()
	// Every delta layer reads through a pool of its own, and Metrics must
	// show each one — after the two base shards, under its file name, with
	// the requests a search made of it — whether a compaction opened the
	// layer (eng) or the directory was opened with it (reopened).
	probe := randomQueries(rng, seq.Protein, 1, scheme)[0]
	requireDeltaPools := func(label string, e *Engine) {
		t.Helper()
		collectStream(t, e, probe)
		m := e.Metrics()
		pools := m.Pools
		if len(pools) != 2+m.Mutable.DeltaLayers || m.Mutable.DeltaLayers == 0 {
			t.Fatalf("%s: %d pools for 2 base shards + %d delta layers", label, len(pools), m.Mutable.DeltaLayers)
		}
		for i, p := range pools {
			switch {
			case i < 2 && (p.Shard != i || !strings.HasPrefix(p.File, "shard-")):
				t.Fatalf("%s: base pool %d reported as %+v", label, i, p)
			case i >= 2 && (!strings.HasPrefix(p.File, "delta-") || p.Requests == 0):
				t.Fatalf("%s: delta layer pool %d reported as %+v, want its file name and the search's requests", label, i, p)
			}
		}
	}
	requireDeltaPools("compacting engine", eng)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := diskst.VerifyIndexDir(dir); err != nil {
		t.Fatalf("scrub after compaction: %v", err)
	}
	reopened, err := New(nil, Options{IndexDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := reopened.Generation(); got != genBefore {
		t.Fatalf("reopened generation %d, want %d", got, genBefore)
	}
	requireDeltaPools("reopened engine", reopened)
	refDB, err := seq.NewDatabase(seq.Protein, liveSeqs)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(refDB, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for qi, q := range randomQueries(rng, seq.Protein, 6, scheme) {
		label := fmt.Sprintf("reopen query %d", qi)
		requireSameIDScores(t, label, collectStream(t, reopened, q), collectStream(t, ref, q))
	}
}

// TestDiskReopenShardEngineServesDeltas pins the read-only reopen path: a
// directory that accumulated compacted delta layers and tombstones must serve
// the live corpus through plain shard.OpenDiskEngine (the shard-server route,
// which never constructs the warm engine's writer).
func TestDiskReopenShardEngineServesDeltas(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	scheme := score.MustScheme(score.ByName("PAM30"), -10)
	db := randomEngineDB(t, rng, seq.Protein, 10, 60)
	dir := filepath.Join(t.TempDir(), "idx")
	if _, _, err := diskst.BuildSharded(dir, db, diskst.ShardedBuildOptions{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	eng, err := New(nil, Options{IndexDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	extras := extraSequences(rng, seq.Protein, 5, 60)
	script := randomScript(rng, db, extras)
	script = append(script, mutation{op: "compact"})
	liveSeqs := applyScript(t, eng, db, script)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := openShardView(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := reopened.Catalog().NumSequences(); got != len(db.Sequences())+len(extras) {
		t.Fatalf("reopened catalog covers %d sequences, want base %d + deltas %d",
			got, len(db.Sequences()), len(extras))
	}
	if got := reopened.LiveSequences(); got != len(liveSeqs) {
		t.Fatalf("reopened view has %d live sequences, want %d", got, len(liveSeqs))
	}

	refDB, err := seq.NewDatabase(seq.Protein, liveSeqs)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(refDB, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for qi, q := range randomQueries(rng, seq.Protein, 6, scheme) {
		want := collectStream(t, ref, q)
		got, err := reopened.SearchAll(q.Residues, q.Options)
		if err != nil {
			t.Fatalf("query %d over reopened shard engine: %v", qi, err)
		}
		requireSameIDScores(t, fmt.Sprintf("shard reopen query %d", qi), got, want)
	}
}

// TestInsertInvalidatesCache asserts the generation-keyed cache contract: a
// cached stream must not be replayed across a write that changes the result.
func TestInsertInvalidatesCache(t *testing.T) {
	db, err := seq.DatabaseFromStrings(seq.Protein,
		"ACDEFGHIKLMNPQRSTVWY", "MKVLITTTAGGGS", "PPPPGGGGSSSS")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(db, Options{Shards: 2, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	scheme := score.MustScheme(score.ByName("PAM30"), -10)
	q := Query{
		ID:       "q",
		Residues: seq.Protein.MustEncode("WWWWHHHHWWWW"),
		Options:  core.Options{Scheme: scheme, MinScore: 40},
	}
	if hits := collectStream(t, eng, q); len(hits) != 0 {
		t.Fatalf("unexpected pre-insert hits: %v", hits)
	}
	// Repeat so the (residues, options, generation) entry is cached and hit.
	collectStream(t, eng, q)
	m := eng.Metrics()
	if m.Cache == nil || m.Cache.Hits == 0 {
		t.Fatalf("repeat query did not hit the cache: %+v", m.Cache)
	}

	if _, err := eng.Insert("match", seq.Protein.MustEncode("AAWWWWHHHHWWWWAA")); err != nil {
		t.Fatal(err)
	}
	hits := collectStream(t, eng, q)
	if len(hits) == 0 || hits[0].SeqID != "match" {
		t.Fatalf("post-insert stream %v does not surface the new sequence: the old generation's cache entry leaked", hits)
	}

	// And the new generation's stream is itself cacheable: a repeat must hit.
	before := eng.Metrics().Cache.Hits
	requireIdenticalStream(t, "post-insert replay", collectStream(t, eng, q), hits)
	if eng.Metrics().Cache.Hits == before {
		t.Fatal("post-insert repeat did not hit the cache")
	}
}

// TestCompactionCrashSafety fails a disk compaction after each step of
// diskst.Dir.Commit in turn — the SiteCompactSwap failpoint, matched on its
// step tag: the delta built under its temporary name, renamed into place,
// reopened, and the next manifest staged — and asserts the crash contract at
// every one: the engine keeps serving the memtable at the old generation, the
// directory holds exactly the files the old manifest names and scrubs clean,
// a second engine opens it at the old generation without the lost insert, and
// a retry succeeds.
func TestCompactionCrashSafety(t *testing.T) {
	defer faultpoint.Reset()
	scheme := score.MustScheme(score.ByName("PAM30"), -10)
	q := Query{Residues: seq.Protein.MustEncode("WWWWHHHHWWWW"), Options: core.Options{Scheme: scheme, MinScore: 40}}
	serves := func(e *Engine, id string) bool {
		for _, h := range collectStream(t, e, q) {
			if h.SeqID == id {
				return true
			}
		}
		return false
	}
	scrub := func(dir, when string) {
		t.Helper()
		if rep, err := diskst.VerifyIndexDir(dir); err != nil || !rep.OK() {
			t.Fatalf("scrub %s: %v, report %+v", when, err, rep)
		}
	}
	for _, step := range []string{"build", "rename", "open", "manifest"} {
		t.Run(step, func(t *testing.T) {
			rng := rand.New(rand.NewSource(47))
			db := randomEngineDB(t, rng, seq.Protein, 8, 50)
			dir := filepath.Join(t.TempDir(), "idx")
			if _, _, err := diskst.BuildSharded(dir, db, diskst.ShardedBuildOptions{Shards: 2}); err != nil {
				t.Fatal(err)
			}
			eng, err := New(nil, Options{IndexDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			// One good compaction first, so the old manifest names a delta too.
			if _, err := eng.Insert("settled", seq.Protein.MustEncode("AAWWWWHHHHWWWWAA")); err != nil {
				t.Fatal(err)
			}
			genDurable, err := eng.Compact()
			if err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Insert("fresh", seq.Protein.MustEncode("CCWWWWHHHHWWWWCC")); err != nil {
				t.Fatal(err)
			}
			genAfterInsert := eng.Generation()

			faultpoint.Enable(faultpoint.SiteCompactSwap, faultpoint.Spec{Mode: faultpoint.ModeError, Match: step, Times: 1})
			if _, err := eng.Compact(); err == nil {
				t.Fatal("compaction swallowed the injected failure")
			}
			if got := faultpoint.Fired(faultpoint.SiteCompactSwap); got != 1 {
				t.Fatalf("the %q step fired %d times, want 1", step, got)
			}
			if got := eng.Generation(); got != genAfterInsert {
				t.Fatalf("failed compaction moved the generation: %d, want %d", got, genAfterInsert)
			}
			if !serves(eng, "fresh") || !serves(eng, "settled") {
				t.Fatal("insert lost after failed compaction")
			}
			after, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			names := func(es []os.DirEntry) (out []string) {
				for _, e := range es {
					out = append(out, e.Name())
				}
				return out
			}
			if !slices.Equal(names(after), names(before)) {
				t.Fatalf("failed compaction left the directory holding %v, want %v", names(after), names(before))
			}
			scrub(dir, "after the failed compaction")

			// What a crash here would leave: the directory reopens at the
			// durable generation, the un-compacted insert lost (the documented
			// LSM-without-WAL contract).
			crashed, err := New(nil, Options{IndexDir: dir})
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}
			if got := crashed.Generation(); got != genDurable {
				t.Fatalf("crashed directory reopened at generation %d, want %d", got, genDurable)
			}
			if serves(crashed, "fresh") || !serves(crashed, "settled") {
				t.Fatal("crashed directory does not serve exactly the durable generation")
			}
			if err := crashed.Close(); err != nil {
				t.Fatal(err)
			}

			// The spec was Times=1, so the retry must succeed and fold the memtable.
			gen, err := eng.Compact()
			if err != nil {
				t.Fatalf("retry compaction: %v", err)
			}
			if gen <= genAfterInsert {
				t.Fatalf("retry compaction did not advance the generation: %d", gen)
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			scrub(dir, "after crash + retry")
			retried, err := New(nil, Options{IndexDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer retried.Close()
			if got := retried.Generation(); got != gen || !serves(retried, "fresh") {
				t.Fatalf("retried compaction reopened at generation %d (want %d), serving fresh: %v", got, gen, serves(retried, "fresh"))
			}
		})
	}
}

// TestIncrementalConcurrentStress races inserts, deletes, compactions and
// searches (run under -race in CI): searches pin a generation for their whole
// run, so every stream must be internally consistent even while writers
// publish new states.
func TestIncrementalConcurrentStress(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	scheme := score.MustScheme(score.ByName("PAM30"), -10)
	db := randomEngineDB(t, rng, seq.Protein, 12, 60)
	eng, err := New(db, Options{Shards: 2, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	queries := randomQueries(rng, seq.Protein, 4, scheme)
	extras := extraSequences(rng, seq.Protein, 24, 50)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(g+i)%len(queries)]
				last := int(^uint(0) >> 1)
				if _, err := eng.Search(context.Background(), q, func(h core.Hit) bool {
					if h.Score > last {
						t.Errorf("stream not decreasing: %d after %d", h.Score, last)
					}
					last = h.Score
					return true
				}); err != nil && err != ErrClosed {
					t.Errorf("search: %v", err)
					return
				}
			}
		}(g)
	}
	for i, s := range extras {
		if _, err := eng.Insert(s.ID, s.Residues); err != nil {
			t.Fatalf("insert %s: %v", s.ID, err)
		}
		if i%5 == 4 {
			if _, err := eng.Delete(s.ID); err != nil {
				t.Fatalf("delete %s: %v", s.ID, err)
			}
		}
		if i%7 == 6 {
			if _, err := eng.Compact(); err != nil {
				t.Fatalf("compact: %v", err)
			}
		}
	}
	close(stop)
	wg.Wait()
}
