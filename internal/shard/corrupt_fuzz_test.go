package shard

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/diskst"
	"repro/internal/score"
	"repro/internal/seq"
)

// FuzzCorruptIndexDir bit-flips arbitrary bytes of a built sharded index and
// asserts the no-silent-corruption contract end to end: opening and searching
// the damaged directory must either succeed with exactly the pristine
// results (the flip landed in padding), complete degraded with Degraded set
// and a hit stream drawn from the pristine one (the flip killed a shard and
// the survivors answered), or fail with an error (typically a checksum
// mismatch) — it must never panic and never return silently wrong hits.
//
// The shard .oasis files are the fuzz surface because they are what the
// CRC32C layer protects; manifest.json is structurally validated JSON, not
// checksummed data.
func FuzzCorruptIndexDir(f *testing.F) {
	rng := rand.New(rand.NewSource(41))
	letters := seq.DNA.Letters()
	strs := make([]string, 10)
	for i := range strs {
		b := make([]byte, 20+rng.Intn(40))
		for j := range b {
			b[j] = letters[rng.Intn(len(letters))]
		}
		strs[i] = string(b)
	}
	db, err := seq.DatabaseFromStrings(seq.DNA, strs...)
	if err != nil {
		f.Fatal(err)
	}
	template := filepath.Join(f.TempDir(), "idx")
	manifest, _, err2 := diskst.BuildSharded(template, db, diskst.ShardedBuildOptions{
		BlockSize: 512,
		Shards:    2,
	})
	if err2 != nil {
		f.Fatal(err2)
	}
	pristine := map[string][]byte{}
	var files []string
	for _, p := range manifest.Shards {
		files = append(files, p.File)
	}
	for _, name := range files {
		data, err := os.ReadFile(filepath.Join(template, name))
		if err != nil {
			f.Fatal(err)
		}
		pristine[name] = data
	}
	manifestBytes, err := os.ReadFile(filepath.Join(template, "manifest.json"))
	if err != nil {
		f.Fatal(err)
	}
	query := seq.DNA.MustEncode("ACGTACGT")
	opts := core.Options{Scheme: score.MustScheme(score.UnitDNA(), -1), MinScore: 3}

	single, err := core.BuildMemoryIndex(db)
	if err != nil {
		f.Fatal(err)
	}
	baseline, err := core.SearchAll(single, query, opts)
	if err != nil {
		f.Fatal(err)
	}
	want := multiset(baseline)

	f.Add(uint8(0), uint32(200), uint8(0x01))
	f.Add(uint8(1), uint32(90), uint8(0x80))
	f.Add(uint8(0), uint32(0), uint8(0xFF))   // header magic
	f.Add(uint8(0), uint32(511), uint8(0x10)) // block-padding tail
	f.Fuzz(func(t *testing.T, fileByte uint8, offset uint32, xor uint8) {
		if xor == 0 {
			t.Skip() // no-op flip
		}
		name := files[int(fileByte)%len(files)]
		dir := filepath.Join(t.TempDir(), "idx")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for n, data := range pristine {
			mutated := append([]byte(nil), data...)
			if n == name {
				mutated[int(offset)%len(mutated)] ^= xor
			}
			if err := os.WriteFile(filepath.Join(dir, n), mutated, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, "manifest.json"), manifestBytes, 0o644); err != nil {
			t.Fatal(err)
		}

		// The deep scrub must never panic on damaged input.
		if _, err := diskst.VerifyIndexDir(dir); err != nil {
			return // unreadable enough that even the scrub refuses: fine
		}

		eng, err := openDisk(dir, 8*512, true)
		if err != nil {
			return // detected at open: fine
		}
		defer eng.Close()
		var st core.Stats
		qOpts := opts
		qOpts.Stats = &st
		hits, err := eng.SearchAll(query, qOpts)
		if err != nil {
			return // detected at search: fine
		}
		checkOrderAndRanks(t, hits, "corrupted-dir")
		for _, h := range hits {
			k := keyOf(h)
			if want[k] == 0 {
				t.Fatalf("silent corruption: hit %+v not in the pristine result set", h)
			}
		}
		if !st.Degraded && len(hits) != len(baseline) {
			t.Fatalf("undegraded stream lost hits: got %d, want %d", len(hits), len(baseline))
		}
	})
}
