package engine

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fuzzutil"
	"repro/internal/score"
	"repro/internal/seq"
)

// FuzzIncrementalEquivalence asserts the mutable layer's rebuild equivalence
// on arbitrary inputs: a base database, a stream of inserted sequences and a
// script byte string driving deletes and compactions must leave the engine
// reporting exactly the hits of an engine built from scratch over the
// surviving sequences.  The script byte for step i selects the operation
// after insert i: bit 0 deletes a pseudo-random live sequence, bit 1
// compacts.
func FuzzIncrementalEquivalence(f *testing.F) {
	f.Add([]byte("ACGTACGTTTACGGACGT\x00GGGTTTACGT\x00ACACACAC"), []byte("TTGGAACC\x00ACGTACGT"), []byte("ACGTAC"), []byte{1, 2}, uint8(2))
	f.Add([]byte("TTTTTTTTTT\x00TTTTT"), []byte("TTTT\x00GGGG\x00CCCC"), []byte("TTTT"), []byte{3, 0, 1}, uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0, 11, 12, 13, 14}, []byte{5, 6, 7, 0, 9, 9, 9}, []byte{5, 6, 7}, []byte{2, 1}, uint8(1))
	scheme := score.MustScheme(score.UnitDNA(), -1)
	f.Fuzz(func(t *testing.T, baseData, insertData, queryData, script []byte, shardByte uint8) {
		base := fuzzutil.DatabaseFromBytes(seq.DNA, baseData)
		insertDB := fuzzutil.DatabaseFromBytes(seq.DNA, insertData)
		query := fuzzutil.QueryFromBytes(seq.DNA, queryData, 32)
		if base == nil || insertDB == nil || query == nil {
			t.Skip()
		}
		eng, err := newMemoryEngine(base, shardByte%2 == 1, Options{Shards: 1 + int(shardByte%4)})
		if err != nil {
			t.Fatalf("engine build: %v", err)
		}
		defer eng.Close()

		// Apply the script: insert every sequence (IDs disambiguated from the
		// base's seqN names), with script-driven deletes and compactions.
		order := append([]seq.Sequence(nil), base.Sequences()...)
		dead := map[string]bool{}
		liveIDs := func() []string {
			var ids []string
			for _, s := range order {
				if !dead[s.ID] {
					ids = append(ids, s.ID)
				}
			}
			return ids
		}
		for i, s := range insertDB.Sequences() {
			id := fmt.Sprintf("ins-%d-%s", i, s.ID)
			if _, err := eng.Insert(id, s.Residues); err != nil {
				t.Fatalf("insert %s: %v", id, err)
			}
			order = append(order, seq.Sequence{ID: id, Residues: s.Residues})
			var op byte
			if i < len(script) {
				op = script[i]
			}
			if op&1 != 0 {
				if ids := liveIDs(); len(ids) > 1 {
					victim := ids[int(op/2)%len(ids)]
					if _, err := eng.Delete(victim); err != nil {
						t.Fatalf("delete %s: %v", victim, err)
					}
					dead[victim] = true
				}
			}
			if op&2 != 0 {
				if _, err := eng.Compact(); err != nil {
					t.Fatalf("compact: %v", err)
				}
			}
		}

		var live []seq.Sequence
		for _, s := range order {
			if !dead[s.ID] {
				live = append(live, s)
			}
		}
		refDB, err := seq.NewDatabase(seq.DNA, live)
		if err != nil {
			t.Fatalf("reference database: %v", err)
		}
		refIdx, err := core.BuildMemoryIndex(refDB)
		if err != nil {
			t.Fatalf("reference index: %v", err)
		}
		opts := core.Options{Scheme: scheme, MinScore: 2}
		want, err := core.SearchAll(refIdx, query, opts)
		if err != nil {
			t.Fatalf("reference search: %v", err)
		}
		got := collectStream(t, eng, Query{Residues: query, Options: opts})
		requireSameIDScores(t, "fuzz", got, want)
	})
}
