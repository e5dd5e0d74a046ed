package shard

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/diskst"
	"repro/internal/faultpoint"
	"repro/internal/score"
	"repro/internal/seq"
)

// buildFaultDir writes a 3-shard sequence-partitioned disk index for a
// deterministic random database and returns the directory, database and a
// query with hits on every shard.
func buildFaultDir(t *testing.T) (dir string, query []byte, opts core.Options) {
	t.Helper()
	rng := rand.New(rand.NewSource(97))
	db := randomShardDB(t, rng, seq.DNA, 18, 90)
	dir = filepath.Join(t.TempDir(), "idx")
	if _, _, err := diskst.BuildSharded(dir, db, diskst.ShardedBuildOptions{
		BlockSize: 2048,
		Shards:    3,
	}); err != nil {
		t.Fatal(err)
	}
	query = seq.DNA.MustEncode("ACGTACGTAC")
	opts = core.Options{Scheme: score.MustScheme(score.UnitDNA(), -1), MinScore: 3}
	return dir, query, opts
}

// openFaultEngine opens the directory through pools small enough that every
// search touches the disk path where faults are injected.
func openFaultEngine(t *testing.T, dir string, allowDegraded bool) *Engine {
	t.Helper()
	eng, err := openDisk(dir, 16*2048, allowDegraded)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

// survivorBaseline computes the ground-truth degraded stream: the directory
// is copied, the target shard's file truncated beyond recovery, and the copy
// opened with AllowDegraded — an engine over exactly the surviving shards
// with the original global sequence numbering.
func survivorBaseline(t *testing.T, dir string, shardFile string, query []byte, opts core.Options) []core.Hit {
	t.Helper()
	clone := filepath.Join(t.TempDir(), "survivors")
	if err := os.MkdirAll(clone, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() == shardFile {
			data = data[:16] // unreadable: the header alone needs 128 bytes
		}
		if err := os.WriteFile(filepath.Join(clone, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	eng := openFaultEngine(t, clone, true)
	if len(eng.Standing()) != 1 {
		t.Fatalf("survivor engine: %d standing quarantines, want 1", len(eng.Standing()))
	}
	var st core.Stats
	bOpts := opts
	bOpts.Stats = &st
	hits, err := eng.SearchAll(query, bOpts)
	if err != nil {
		t.Fatalf("survivor baseline search: %v", err)
	}
	if !st.Degraded || len(st.ShardErrors) == 0 {
		t.Fatalf("survivor baseline not marked degraded: %+v", st)
	}
	return hits
}

// TestFaultMatrixDegradedEquivalence is the fault-matrix acceptance test:
// for every injection site and fault mode that kills one of three shards,
// the query must complete from the survivors with Degraded set and per-shard
// error detail, and the degraded hit stream must be identical to searching
// an engine over only the surviving shards.  Latency injection must degrade
// nothing; strict mode must fail the query instead.
func TestFaultMatrixDegradedEquivalence(t *testing.T) {
	dir, query, opts := buildFaultDir(t)

	healthy := openFaultEngine(t, dir, false)
	fullHits, err := healthy.SearchAll(query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(fullHits) < 3 {
		t.Fatalf("query too weak for the fault matrix: only %d hits", len(fullHits))
	}
	baseline := survivorBaseline(t, dir, "shard-1.oasis", query, opts)
	if len(baseline) == 0 || len(baseline) >= len(fullHits) {
		t.Fatalf("degenerate baseline: %d survivor hits of %d total (shard 1 must own some hits)",
			len(baseline), len(fullHits))
	}

	cases := []struct {
		name string
		site string
		spec faultpoint.Spec
		// degrades: the fault kills shard 1 and the stream completes from
		// the survivors; otherwise the fault is absorbed (latency) and the
		// full stream must come back.
		degrades bool
	}{
		{"worker-error", faultpoint.SiteShardWorker,
			faultpoint.Spec{Mode: faultpoint.ModeError, Match: "shard-1"}, true},
		{"disk-read-error", faultpoint.SiteDiskRead,
			faultpoint.Spec{Mode: faultpoint.ModeError, Match: "shard-1.oasis"}, true},
		{"pool-fill-error", faultpoint.SitePoolFill,
			faultpoint.Spec{Mode: faultpoint.ModeError, Match: "shard-1.oasis"}, true},
		{"block-corruption", faultpoint.SiteDiskBlock,
			faultpoint.Spec{Mode: faultpoint.ModeCorrupt, Match: "shard-1.oasis"}, true},
		{"disk-latency", faultpoint.SiteDiskRead,
			faultpoint.Spec{Mode: faultpoint.ModeLatency, Delay: 200 * time.Microsecond}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer faultpoint.Reset()
			eng := openFaultEngine(t, dir, false)
			faultpoint.Enable(tc.site, tc.spec)

			var st core.Stats
			qOpts := opts
			qOpts.Stats = &st
			got, err := eng.SearchAll(query, qOpts)
			if err != nil {
				t.Fatalf("degraded search failed outright: %v", err)
			}
			if faultpoint.Fired(tc.site) == 0 {
				t.Fatalf("fault at %s never triggered", tc.site)
			}
			if !tc.degrades {
				if st.Degraded {
					t.Fatalf("latency injection degraded the stream: %+v", st.ShardErrors)
				}
				assertSameHits(t, got, fullHits)
				return
			}
			if !st.Degraded {
				t.Fatal("stream completed but Degraded is not set")
			}
			if len(st.ShardErrors) != 1 || st.ShardErrors[0].Shard != 1 || st.ShardErrors[0].Err == "" {
				t.Fatalf("shard error detail wrong: %+v", st.ShardErrors)
			}
			assertSameHits(t, got, baseline)
		})
	}

	t.Run("strict-mode-fails", func(t *testing.T) {
		defer faultpoint.Reset()
		eng := openFaultEngine(t, dir, false)
		faultpoint.Enable(faultpoint.SiteShardWorker,
			faultpoint.Spec{Mode: faultpoint.ModeError, Match: "shard-1"})
		qOpts := opts
		qOpts.StrictShards = true
		if _, err := eng.SearchAll(query, qOpts); err == nil {
			t.Fatal("strict mode completed despite a shard failure")
		}
	})

	t.Run("all-shards-failed", func(t *testing.T) {
		defer faultpoint.Reset()
		eng := openFaultEngine(t, dir, false)
		faultpoint.Enable(faultpoint.SiteShardWorker,
			faultpoint.Spec{Mode: faultpoint.ModeError}) // no Match: every shard dies
		if _, err := eng.SearchAll(query, opts); err == nil {
			t.Fatal("search over zero surviving shards reported success")
		}
	})

	t.Run("transient-error-retried", func(t *testing.T) {
		defer faultpoint.Reset()
		eng := openFaultEngine(t, dir, false)
		before := diskst.Counters().ReadRetries
		// One injected read error: the reader's retry loop absorbs it and
		// the query completes undegraded with the full hit stream.
		faultpoint.Enable(faultpoint.SiteDiskRead,
			faultpoint.Spec{Mode: faultpoint.ModeError, Match: "shard-1.oasis", Times: 1})
		var st core.Stats
		qOpts := opts
		qOpts.Stats = &st
		got, err := eng.SearchAll(query, qOpts)
		if err != nil {
			t.Fatalf("transient fault was not absorbed: %v", err)
		}
		if st.Degraded {
			t.Fatalf("transient fault degraded the stream: %+v", st.ShardErrors)
		}
		assertSameHits(t, got, fullHits)
		if diskst.Counters().ReadRetries <= before {
			t.Fatal("retry counter did not move")
		}
	})
}

// TestCorruptSymbolsFailAtOpen: the symbol region is read whole, and
// verified, when its file opens, so one flipped byte in it fails the open
// with an *OpenError wrapping a *ChecksumError that names the file, instead of
// a later search.  Without allowDegraded the directory does not open; with it
// the shard is quarantined at open and searches complete Degraded with
// exactly the other shard's hits.
func TestCorruptSymbolsFailAtOpen(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	db := randomShardDB(t, rng, seq.DNA, 12, 90)
	dir := filepath.Join(t.TempDir(), "idx")
	if _, _, err := diskst.BuildSharded(dir, db, diskst.ShardedBuildOptions{BlockSize: 2048, Shards: 2}); err != nil {
		t.Fatal(err)
	}
	query := seq.DNA.MustEncode("ACGTACGTAC")
	opts := core.Options{Scheme: score.MustScheme(score.UnitDNA(), -1), MinScore: 3}
	baseline := survivorBaseline(t, dir, "shard-1.oasis", query, opts)

	// The symbol region starts one block in, after the header.
	target := filepath.Join(dir, "shard-1.oasis")
	f, err := os.OpenFile(target, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], 2048+5); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], 2048+5); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, err = diskst.OpenDir(dir, 1<<20, false)
	var oe *diskst.OpenError
	var ce *diskst.ChecksumError
	if !errors.As(err, &oe) || !errors.As(err, &ce) || oe.Path != target || ce.Path != target || ce.Block != 1 {
		t.Fatalf("opening a directory with corrupt symbols: %v, want an *OpenError wrapping a *ChecksumError naming %s block 1", err, target)
	}

	eng := openFaultEngine(t, dir, true)
	if q := eng.Standing(); len(q) != 1 || q[0].Shard != 1 || !strings.Contains(q[0].Err, "shard-1.oasis") {
		t.Fatalf("quarantine at open: %+v, want shard 1 naming its file", q)
	}
	var st core.Stats
	qOpts := opts
	qOpts.Stats = &st
	got, err := eng.SearchAll(query, qOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Degraded {
		t.Fatal("search over a quarantined shard is not marked degraded")
	}
	assertSameHits(t, got, baseline)
}

// assertSameHits requires hit-for-hit equality (ranks, scores, sequences,
// E-values): degraded streams are not approximately right, they are exactly
// the surviving shards' stream.
func assertSameHits(t *testing.T, got, want []core.Hit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d hits, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("hit %d differs:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestDegradedStatsMerge pins the engine-layer contract at the shard level:
// a degraded search reports different stats than a healthy one, so the two
// must never be conflated by result caching (the engine package refuses to
// cache Degraded streams; here we just assert the flag round-trips through
// Stats.Add merging).
func TestDegradedStatsMerge(t *testing.T) {
	var total core.Stats
	total.Add(core.Stats{Degraded: true, ShardErrors: []core.ShardError{{Shard: 2, Err: "boom"}}})
	total.Add(core.Stats{})
	if !total.Degraded || len(total.ShardErrors) != 1 {
		t.Fatalf("degraded stats did not merge: %+v", total)
	}
}
