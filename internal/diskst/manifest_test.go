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
// and checks the manifest, the shard files, and the reopened engine's global
// maps agree with the build-time partition.
func TestBuildShardedSequenceRoundTrip(t *testing.T) {
	db := manifestTestDB(t)
	dir := t.TempDir()
	m, stats, err := BuildSharded(dir, db, ShardedBuildOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if m.Partition != PartitionSequence || m.Shards != 3 {
		t.Fatalf("manifest partition %q shards %d, want sequence/3", m.Partition, m.Shards)
	}
	if len(stats) != 3 || len(m.ShardFiles) != 3 {
		t.Fatalf("got %d stats and %d files, want 3/3", len(stats), len(m.ShardFiles))
	}
	if m.NumSequences != db.NumSequences() || m.TotalResidues != db.TotalResidues() {
		t.Fatalf("manifest says %d seqs / %d residues, db has %d / %d",
			m.NumSequences, m.TotalResidues, db.NumSequences(), db.TotalResidues())
	}
	got, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Partition != m.Partition || got.Shards != m.Shards || len(got.GlobalIndex) != len(m.GlobalIndex) {
		t.Fatalf("reread manifest %+v differs from written %+v", got, m)
	}
	covered := map[int]bool{}
	for s, g := range got.GlobalIndex {
		for _, gi := range g {
			if covered[gi] {
				t.Fatalf("global sequence %d assigned twice", gi)
			}
			covered[gi] = true
		}
		if len(g) == 0 {
			t.Fatalf("shard %d covers no sequences", s)
		}
	}
	if len(covered) != db.NumSequences() {
		t.Fatalf("global maps cover %d sequences, db has %d", len(covered), db.NumSequences())
	}

	sh, err := OpenDir(dir, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	if len(sh.Indexes) != 3 {
		t.Fatalf("opened %d indexes, want 3", len(sh.Indexes))
	}
	for s, idx := range sh.Indexes {
		if idx.Catalog().NumSequences() != len(got.GlobalIndex[s]) {
			t.Fatalf("shard %d holds %d sequences, manifest map says %d",
				s, idx.Catalog().NumSequences(), len(got.GlobalIndex[s]))
		}
	}
}

// TestManifestValidation exercises the manifest's rejection paths.  Where a
// row names the error, the refusal must say it: manifests of versions 1 and 2
// can only name index files Open refuses, and a prefix-partitioned directory
// is a layout this build no longer serves, so both are refused with the
// rebuild that fixes them, not half-read.
func TestManifestValidation(t *testing.T) {
	base := func() *Manifest {
		return &Manifest{
			Version: ManifestVersion, Partition: PartitionSequence, Shards: 2,
			Alphabet: "protein", BlockSize: 2048, NumSequences: 2, TotalResidues: 10,
			ShardFiles:  []string{"shard-0.oasis", "shard-1.oasis"},
			GlobalIndex: [][]int{{0}, {1}},
		}
	}
	const prefixRemedy = `manifest partition "prefix", this build serves sequence-partitioned directories only: rebuild the index with oasis-build -shards 2`
	cases := []struct {
		name   string
		mutate func(*Manifest)
		want   string // a substring of the error; "" accepts any
	}{
		{"bad version", func(m *Manifest) { m.Version = 99 }, ""},
		{"version 1", func(m *Manifest) { m.Version = 1 }, "manifest version 1, this build reads only version 3: rebuild the index with oasis-build"},
		{"version 2", func(m *Manifest) { m.Version = 2 }, "manifest version 2, this build reads only version 3: rebuild the index with oasis-build"},
		{"no shards", func(m *Manifest) { m.Shards = 0 }, ""},
		{"bad alphabet", func(m *Manifest) { m.Alphabet = "klingon" }, ""},
		{"bad partition", func(m *Manifest) { m.Partition = "hash" }, ""},
		{"file count", func(m *Manifest) { m.ShardFiles = m.ShardFiles[:1] }, ""},
		{"global maps", func(m *Manifest) { m.GlobalIndex = nil }, ""},
		{"absolute file", func(m *Manifest) { m.ShardFiles[0] = "/etc/passwd" }, ""},
		{"path in file", func(m *Manifest) { m.ShardFiles[0] = "../shard-0.oasis" }, ""},
		{"prefix partition", func(m *Manifest) { m.Partition = "prefix" }, prefixRemedy},
		// What an older build wrote: one shared file and no global maps.
		{"prefix shared file", func(m *Manifest) {
			m.Partition, m.ShardFiles, m.GlobalIndex = "prefix", m.ShardFiles[:1], nil
		}, prefixRemedy},
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

// TestManifestV3MutableFields covers the v3 delta/tombstone invariants: delta
// global indexes must continue the numbering densely after the base corpus
// and earlier deltas, tombstones must stay inside the combined sequence
// space, and a valid v3 manifest must survive the atomic write/read round
// trip losslessly.
func TestManifestV3MutableFields(t *testing.T) {
	base := func() *Manifest {
		return &Manifest{
			Version: ManifestVersion, Partition: PartitionSequence, Shards: 2,
			Alphabet: "protein", BlockSize: 2048, NumSequences: 3, TotalResidues: 30,
			ShardFiles:  []string{"shard-0.oasis", "shard-1.oasis"},
			GlobalIndex: [][]int{{0, 2}, {1}},
			Generation:  4,
			Deltas: []DeltaRecord{
				{File: "delta-000002.oasis", GlobalIndex: []int{3, 4}, Residues: 17},
				{File: "delta-000004.oasis", GlobalIndex: []int{5}, Residues: 9},
			},
			Tombstones: []int{1, 4},
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("valid v3 manifest rejected: %v", err)
	}
	cases := map[string]func(*Manifest){
		"delta path in file":  func(m *Manifest) { m.Deltas[0].File = "sub/delta.oasis" },
		"delta empty globals": func(m *Manifest) { m.Deltas[1].GlobalIndex = nil },
		"delta gap":           func(m *Manifest) { m.Deltas[0].GlobalIndex = []int{3, 5} },
		"delta overlaps base": func(m *Manifest) { m.Deltas[0].GlobalIndex = []int{2, 3} },
		"delta out of order":  func(m *Manifest) { m.Deltas[0], m.Deltas[1] = m.Deltas[1], m.Deltas[0] },
		"tombstone negative":  func(m *Manifest) { m.Tombstones[0] = -1 },
		"tombstone past end":  func(m *Manifest) { m.Tombstones[1] = 6 },
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
		t.Fatalf("v3 round trip lost data:\n  wrote %s\n  read  %s", want, raw)
	}
	if got.Generation != 4 || len(got.Deltas) != 2 || len(got.Tombstones) != 2 {
		t.Fatalf("reread v3 fields %+v", got)
	}
}

// TestOpenDirRejectsTamperedManifest covers the open-time cross-check of
// manifest totals against the shard files.
func TestOpenDirRejectsTamperedManifest(t *testing.T) {
	db := manifestTestDB(t)
	dir := t.TempDir()
	m, _, err := BuildSharded(dir, db, ShardedBuildOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	m.TotalResidues++
	if err := writeManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(dir, 0, false); err == nil {
		t.Fatal("OpenDir accepted a manifest whose totals disagree with the shard files")
	}
}

// FuzzManifestRoundTrip feeds arbitrary bytes through the manifest parser
// and, for inputs that validate, asserts the write/read round trip is
// lossless.  The seed corpus holds a built manifest, the same manifest marked
// "prefix" as an older build wrote it (refused), and an old version.
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
