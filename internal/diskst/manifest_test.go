package diskst

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/seq"
)

func manifestTestDB(t *testing.T) *seq.Database {
	t.Helper()
	db, err := seq.DatabaseFromStrings(seq.Protein,
		"ACDEFGHIKLMNPQRSTVWY", "MKTAYIAKQR", "GGGG", "ACDACDACD", "WYWYWYW", "KLMNP")
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestBuildShardedSequenceRoundTrip builds a sequence-partitioned directory
// and checks that the manifest's records are contiguous runs covering the
// database in order, that they survive a reread, and that each opened shard
// file holds what its record says.
func TestBuildShardedSequenceRoundTrip(t *testing.T) {
	db := manifestTestDB(t)
	dir := t.TempDir()
	m, stats, err := BuildSharded(dir, db, ShardedBuildOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if m.Partition != PartitionSequence || len(m.Shards) != 3 || len(stats) != 3 {
		t.Fatalf("manifest partition %q, %d shards, %d stats, want sequence/3/3", m.Partition, len(m.Shards), len(stats))
	}
	first := 0
	var residues int64
	for s, p := range m.Shards {
		if p.Sequences == 0 {
			t.Fatalf("shard %d covers no sequences", s)
		}
		var want int64
		for g := first; g < first+p.Sequences; g++ {
			want += int64(db.Sequence(g).Len())
		}
		if p.Residues != want {
			t.Fatalf("shard %d record says %d residues, its run of the database holds %d", s, p.Residues, want)
		}
		first += p.Sequences
		residues += p.Residues
	}
	if first != db.NumSequences() || residues != db.TotalResidues() {
		t.Fatalf("records cover %d seqs / %d residues, db has %d / %d", first, residues, db.NumSequences(), db.TotalResidues())
	}
	got, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(m)
	raw, _ := json.Marshal(got)
	if string(raw) != string(want) {
		t.Fatalf("reread manifest %s differs from written %s", raw, want)
	}

	sh, err := OpenDir(dir, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	if len(sh.Indexes) != 3 {
		t.Fatalf("opened %d indexes, want 3", len(sh.Indexes))
	}
	first = 0
	for s, idx := range sh.Indexes {
		cat := idx.Catalog()
		if cat.NumSequences() != got.Shards[s].Sequences {
			t.Fatalf("shard %d holds %d sequences, manifest record says %d", s, cat.NumSequences(), got.Shards[s].Sequences)
		}
		for i := range cat.NumSequences() {
			if cat.SequenceID(i) != db.Sequence(first+i).ID {
				t.Fatalf("shard %d sequence %d is %s, global sequence %d is %s", s, i, cat.SequenceID(i), first+i, db.Sequence(first+i).ID)
			}
		}
		first += cat.NumSequences()
	}
}

// TestBuildShardedReportsLowestFailedShard: shards build concurrently, but a
// failure is reported as the serial loop reported it — the lowest-numbered
// failed shard — and no manifest is written.
func TestBuildShardedReportsLowestFailedShard(t *testing.T) {
	dir := t.TempDir()
	for _, s := range []string{"shard-1.oasis", "shard-2.oasis"} {
		// A non-empty directory where a shard file belongs: that shard fails.
		if err := os.MkdirAll(filepath.Join(dir, s, "x"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for range 5 {
		_, _, err := BuildSharded(dir, manifestTestDB(t), ShardedBuildOptions{Shards: 3})
		if err == nil || !strings.HasPrefix(err.Error(), "shard 1:") {
			t.Fatalf("error %v, want shard 1's", err)
		}
		if _, err := os.Stat(filepath.Join(dir, ManifestName)); !os.IsNotExist(err) {
			t.Fatalf("manifest written after a failed build (stat: %v)", err)
		}
	}
}

// TestManifestSizeIndependentOfSequenceCount: a manifest names files, not
// sequences, so ten times the sequences in as many shards adds at most the
// longer numbers' digits.
func TestManifestSizeIndependentOfSequenceCount(t *testing.T) {
	size := func(n int) int {
		strs := make([]string, n)
		for i := range strs {
			strs[i] = "ACDEFGHIK"
		}
		db, err := seq.DatabaseFromStrings(seq.Protein, strs...)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if _, _, err := BuildSharded(dir, db, ShardedBuildOptions{Shards: 2, BlockSize: 512}); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(filepath.Join(dir, ManifestName))
		if err != nil {
			t.Fatal(err)
		}
		return int(fi.Size())
	}
	small, large := size(40), size(400)
	if large-small > 8 {
		t.Fatalf("manifest grew from %d to %d bytes when the sequences went from 40 to 400", small, large)
	}
}

// TestManifestValidation exercises the manifest's rejection paths.  Where a
// row names the error, the refusal must say it: manifests of versions 1 and 2
// can only name index files Open refuses, version 3 mapped sequences one by
// one, and a prefix-partitioned directory is a layout this build no longer
// serves, so all are refused with the rebuild that fixes them, not half-read.
func TestManifestValidation(t *testing.T) {
	base := func() *Manifest {
		return &Manifest{
			Version: ManifestVersion, Partition: PartitionSequence,
			Alphabet: "protein", BlockSize: 2048,
			Shards: []Part{{File: "shard-0.oasis", Sequences: 1, Residues: 4}, {File: "shard-1.oasis", Sequences: 1, Residues: 6}},
		}
	}
	const prefixRemedy = `manifest partition "prefix", this build serves sequence-partitioned directories only: rebuild the index with oasis-build -shards 2`
	cases := []struct {
		name   string
		mutate func(*Manifest)
		want   string // a substring of the error; "" accepts any
	}{
		{"bad version", func(m *Manifest) { m.Version = 99 }, ""},
		{"version 1", func(m *Manifest) { m.Version = 1 }, "manifest version 1, this build reads only version 4: rebuild the index with oasis-build"},
		{"version 2", func(m *Manifest) { m.Version = 2 }, "manifest version 2, this build reads only version 4: rebuild the index with oasis-build"},
		{"version 3", func(m *Manifest) { m.Version = 3 }, "manifest version 3, this build reads only version 4: rebuild the index with oasis-build"},
		{"no shards", func(m *Manifest) { m.Shards = nil }, ""},
		{"bad alphabet", func(m *Manifest) { m.Alphabet = "klingon" }, ""},
		{"bad partition", func(m *Manifest) { m.Partition = "hash" }, ""},
		{"shard with no sequences", func(m *Manifest) { m.Shards[1].Sequences = 0 }, "holds 0 sequences"},
		{"shard with negative residues", func(m *Manifest) { m.Shards[0].Residues = -1 }, "holds 1 sequences / -1 residues"},
		{"absolute file", func(m *Manifest) { m.Shards[0].File = "/etc/passwd" }, ""},
		{"path in file", func(m *Manifest) { m.Shards[0].File = "../shard-0.oasis" }, ""},
		{"prefix partition", func(m *Manifest) { m.Partition = "prefix" }, prefixRemedy},
		// What an older build wrote: a version-3 prefix directory.
		{"version 3 prefix", func(m *Manifest) { m.Version, m.Partition = 3, "prefix" }, "rebuild the index with oasis-build"},
	}
	for _, tc := range cases {
		m := base()
		tc.mutate(m)
		err := m.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate returned %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
}

// manifestV3 is a version-3 manifest as the previous build wrote it, with
// per-sequence global maps and one compacted delta.
const manifestV3 = `{"version":3,"partition":"sequence","shards":2,"alphabet":"protein","block_size":2048,` +
	`"num_sequences":3,"total_residues":24,"shard_files":["shard-0.oasis","shard-1.oasis"],` +
	`"global_index":[[0,2],[1]],"generation":2,` +
	`"deltas":[{"file":"delta-000002.oasis","global_index":[3],"residues":5}],"tombstones":[1]}`

// TestReadManifestRefusesVersion3: a version-3 manifest does not parse as
// this schema ("shards" was a count), yet reading it names its version and
// the rebuild, not the JSON mismatch.
func TestReadManifestRefusesVersion3(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte(manifestV3), 0o644); err != nil {
		t.Fatal(err)
	}
	const want = "manifest version 3, this build reads only version 4: rebuild the index with oasis-build"
	if _, err := ReadManifest(dir); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("ReadManifest of a version-3 manifest: %v, want an error containing %q", err, want)
	}
}

// markPrefix rewrites the manifest of the sequence-partitioned directory at
// dir to say "partition":"prefix", as an older build's prefix directory did.
func markPrefix(t testing.TB, dir string) {
	t.Helper()
	path := filepath.Join(dir, ManifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	marked := bytes.Replace(data, []byte(`"partition": "sequence"`), []byte(`"partition": "prefix"`), 1)
	if bytes.Equal(marked, data) {
		t.Fatalf("%s names no sequence partition:\n%s", path, data)
	}
	if err := os.WriteFile(path, marked, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestPrefixDirectoryRefused: every reader of a directory — ReadManifest,
// OpenDir, VerifyIndexDir (oasis-build -verify) — refuses a prefix-partitioned
// one, naming the rebuild.
func TestPrefixDirectoryRefused(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := BuildSharded(dir, manifestTestDB(t), ShardedBuildOptions{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	markPrefix(t, dir)
	const want = "rebuild the index with oasis-build -shards 2"
	if _, err := ReadManifest(dir); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("ReadManifest: %v, want an error containing %q", err, want)
	}
	if d, err := OpenDir(dir, 0, true); err == nil || !strings.Contains(err.Error(), want) {
		if d != nil {
			d.Close()
		}
		t.Errorf("OpenDir: %v, want an error containing %q", err, want)
	}
	if _, err := VerifyIndexDir(dir); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("VerifyIndexDir: %v, want an error containing %q", err, want)
	}
}

// TestManifestV3MutableFields covers the delta/tombstone invariants: a delta
// record holds at least one sequence and no negative residue count,
// tombstones must stay inside the combined sequence space, and a valid
// manifest must survive the atomic write/read round trip losslessly.
func TestManifestV3MutableFields(t *testing.T) {
	base := func() *Manifest {
		return &Manifest{
			Version: ManifestVersion, Partition: PartitionSequence,
			Alphabet: "protein", BlockSize: 2048,
			Shards:     []Part{{File: "shard-0.oasis", Sequences: 2, Residues: 20}, {File: "shard-1.oasis", Sequences: 1, Residues: 10}},
			Generation: 4,
			Deltas: []Part{
				{File: "delta-000002.oasis", Sequences: 2, Residues: 17},
				{File: "delta-000004.oasis", Sequences: 1, Residues: 9},
			},
			Tombstones: []int{1, 4},
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	cases := map[string]func(*Manifest){
		"delta path in file":        func(m *Manifest) { m.Deltas[0].File = "sub/delta.oasis" },
		"delta with no sequences":   func(m *Manifest) { m.Deltas[1].Sequences = 0 },
		"delta negative residues":   func(m *Manifest) { m.Deltas[0].Residues = -17 },
		"tombstone negative":        func(m *Manifest) { m.Tombstones[0] = -1 },
		"tombstone past end":        func(m *Manifest) { m.Tombstones[1] = 6 },
		"tombstone past short base": func(m *Manifest) { m.Deltas = nil },
	}
	for name, mutate := range cases {
		m := base()
		mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, m)
		}
	}
	dir := t.TempDir()
	m := base()
	if err := writeManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestName+".tmp")); !os.IsNotExist(err) {
		t.Fatalf("temp manifest left behind after a successful write (stat err %v)", err)
	}
	got, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(m)
	raw, _ := json.Marshal(got)
	if string(raw) != string(want) {
		t.Fatalf("round trip lost data:\n  wrote %s\n  read  %s", want, raw)
	}
	if got.Generation != 4 || len(got.Deltas) != 2 || len(got.Tombstones) != 2 {
		t.Fatalf("reread mutable fields %+v", got)
	}
}

// TestOpenDirRejectsTamperedManifest covers the open-time cross-check of
// each shard's manifest record against its file.
func TestOpenDirRejectsTamperedManifest(t *testing.T) {
	db := manifestTestDB(t)
	dir := t.TempDir()
	m, _, err := BuildSharded(dir, db, ShardedBuildOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	m.Shards[1].Residues++
	if err := writeManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(dir, 0, false); err == nil || !strings.Contains(err.Error(), "shard-1.oasis") {
		t.Fatalf("OpenDir of a manifest whose record disagrees with shard-1.oasis: %v", err)
	}
}

// FuzzManifestRoundTrip feeds arbitrary bytes through the manifest parser
// and, for inputs that validate, asserts the write/read round trip is
// lossless.  The seed corpus holds a built manifest, the same manifest marked
// "prefix" as an older build wrote it (refused), a version-3 manifest with
// per-sequence global maps (refused) and an old version.
func FuzzManifestRoundTrip(f *testing.F) {
	db, err := seq.DatabaseFromStrings(seq.Protein, "ACDEFGHIKL", "MNPQRSTVWY", "ACAC")
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	if _, _, err := BuildSharded(dir, db, ShardedBuildOptions{Shards: 2}); err != nil {
		f.Fatal(err)
	}
	addManifest := func() {
		data, err := os.ReadFile(filepath.Join(dir, ManifestName))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	addManifest()
	markPrefix(f, dir)
	addManifest()
	f.Add([]byte(manifestV3))
	f.Add([]byte(`{"version":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Manifest
		if err := json.Unmarshal(data, &m); err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			return
		}
		dir := t.TempDir()
		if err := writeManifest(dir, &m); err != nil {
			t.Fatalf("valid manifest failed to write: %v", err)
		}
		got, err := ReadManifest(dir)
		if err != nil {
			t.Fatalf("written manifest failed to read back: %v", err)
		}
		a, err := json.Marshal(&m)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("manifest round trip changed content:\n%s\n%s", a, b)
		}
	})
}
