package shard

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fuzzutil"
	"repro/internal/score"
	"repro/internal/seq"
)

// FuzzShardMergeOrder asserts the sharded engine's merge contract on
// arbitrary databases, queries and shard counts: the merged stream must be
// non-increasing in score with consecutive ranks, and must contain exactly
// the hits the single-index search reports (equal-score hits may interleave differently,
// nothing may appear, vanish or change score).
func FuzzShardMergeOrder(f *testing.F) {
	f.Add([]byte("ACGTACGTTTACGGACGT\x00GGGTTTACGT\x00ACACACAC\x00TTGGAACC"), []byte("ACGTAC"), uint8(3), uint8(0))
	f.Add([]byte("TTTTTTTTTT\x00TTTTT\x00TTTT"), []byte("TTTT"), uint8(8), uint8(2))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0, 11, 12, 13, 14, 0, 3, 3, 3}, []byte{5, 6, 7}, uint8(2), uint8(0))
	scheme := score.MustScheme(score.UnitDNA(), -1)
	f.Fuzz(func(t *testing.T, dbData, queryData []byte, shardByte, maxResByte uint8) {
		db := fuzzutil.DatabaseFromBytes(seq.DNA, dbData)
		query := fuzzutil.QueryFromBytes(seq.DNA, queryData, 48)
		if db == nil || query == nil {
			t.Skip()
		}
		opts := core.Options{Scheme: scheme, MinScore: 2, MaxResults: int(maxResByte % 8)}

		single, err := core.BuildMemoryIndex(db)
		if err != nil {
			t.Fatalf("index build: %v", err)
		}
		baseOpts := opts
		baseOpts.MaxResults = 0
		baseline, err := core.SearchAll(single, query, baseOpts)
		if err != nil {
			t.Fatalf("single-index search: %v", err)
		}

		engine, err := NewEngine(db, Options{Shards: 1 + int(shardByte%8)})
		if err != nil {
			t.Fatalf("engine build: %v", err)
		}
		merged, err := engine.SearchAll(query, opts)
		if err != nil {
			t.Fatalf("sharded search: %v", err)
		}

		// Strict merge-order contract: non-increasing scores, ranks 1..n.
		for i, h := range merged {
			if h.Rank != i+1 {
				t.Fatalf("hit %d has rank %d, want %d", i, h.Rank, i+1)
			}
			if i > 0 && h.Score > merged[i-1].Score {
				t.Fatalf("score order violated at %d: %d after %d (shards=%d)",
					i, h.Score, merged[i-1].Score, engine.NumShards())
			}
		}

		// Hit-identity contract against the single-index baseline.
		want := len(baseline)
		if opts.MaxResults > 0 && opts.MaxResults < want {
			want = opts.MaxResults
		}
		if len(merged) != want {
			t.Fatalf("merged %d hits, want %d (MaxResults=%d, baseline=%d, shards=%d)",
				len(merged), want, opts.MaxResults, len(baseline), engine.NumShards())
		}
		valid := map[[2]int]int{} // (seqIndex, score) -> multiplicity
		for _, h := range baseline {
			valid[[2]int{h.SeqIndex, h.Score}]++
		}
		for i, h := range merged {
			if h.Score != baseline[i].Score {
				t.Fatalf("score %d at position %d, baseline has %d",
					h.Score, i, baseline[i].Score)
			}
			k := [2]int{h.SeqIndex, h.Score}
			if valid[k] == 0 {
				t.Fatalf("hit %+v not in the single-index result set", h)
			}
			valid[k]--
		}
	})
}
