package shard

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultpoint"
	"repro/internal/score"
	"repro/internal/seq"
)

// TestExtraStreamsRunConcurrently is the regression test for mutable-layer
// streams queueing behind the base shards: the worker pool used to be sized
// to the BASE shard count, so a one-shard engine ran its delta and memtable
// streams strictly one after another — and since an unstarted stream holds
// the merger at the query's root bound, nothing was released until the last
// one started.  With every stream worker stalled 100 ms, one base shard plus
// three delta streams must finish in about one stall, not four.
func TestExtraStreamsRunConcurrently(t *testing.T) {
	const stall = 100 * time.Millisecond
	rng := rand.New(rand.NewSource(12))
	all := randomShardDB(t, rng, seq.Protein, 8, 40).Sequences()
	const nDelta = 3
	nBase := len(all) - nDelta
	var layers []core.Index
	for g := nBase; g < len(all); g++ {
		idx, err := core.BuildMemoryIndex(seq.MustDatabase(seq.Protein, all[g:g+1]))
		if err != nil {
			t.Fatal(err)
		}
		layers = append(layers, idx)
	}
	query := all[0].Residues
	opts := core.Options{Scheme: score.MustScheme(score.ByName("PAM30"), -10), MinScore: 5}

	timed := func() (time.Duration, []core.Hit) {
		t.Helper()
		eng, err := NewEngine(seq.MustDatabase(seq.Protein, all[:nBase]), Options{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		view, err := eng.WithLayers(layers, nil)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		hits, err := view.SearchAll(query, opts)
		if err != nil {
			t.Fatal(err)
		}
		return time.Since(start), hits
	}

	_, want := timed()
	defer faultpoint.Reset()
	faultpoint.Enable(faultpoint.SiteShardWorker, faultpoint.Spec{Mode: faultpoint.ModeLatency, Delay: stall})
	elapsed, got := timed()
	if faultpoint.Fired(faultpoint.SiteShardWorker) != 1+nDelta {
		t.Fatalf("stall fired %d times, want once per stream (%d)", faultpoint.Fired(faultpoint.SiteShardWorker), 1+nDelta)
	}
	if elapsed >= 3*stall {
		t.Fatalf("1 base + %d delta streams took %s with each stalled %s: the streams ran one after another", nDelta, elapsed, stall)
	}
	assertSameHits(t, got, want)
}
