package diskst

import (
	"encoding/json"
	"fmt"
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
	if len(sh.Indexes) != 3 || sh.Frontier != nil {
		t.Fatalf("sequence mode opened %d indexes, frontier %v", len(sh.Indexes), sh.Frontier)
	}
	for s, idx := range sh.Indexes {
		if idx.Catalog().NumSequences() != len(got.GlobalIndex[s]) {
			t.Fatalf("shard %d holds %d sequences, manifest map says %d",
				s, idx.Catalog().NumSequences(), len(got.GlobalIndex[s]))
		}
	}
}

// TestBuildShardedPrefixRoundTrip builds a prefix-partitioned directory and
// checks the single shared file, the restored assignment, and that every
// shard handle reads through its own pool.
func TestBuildShardedPrefixRoundTrip(t *testing.T) {
	db := manifestTestDB(t)
	dir := t.TempDir()
	m, stats, err := BuildSharded(dir, db, ShardedBuildOptions{Shards: 4, PartitionByPrefix: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.Partition != PartitionPrefix || m.Shards != 4 {
		t.Fatalf("manifest partition %q shards %d, want prefix/4", m.Partition, m.Shards)
	}
	if len(stats) != 1 || len(m.ShardFiles) != 1 {
		t.Fatalf("prefix mode wrote %d stats / %d files, want one shared file", len(stats), len(m.ShardFiles))
	}
	if m.PrefixAssignment == nil {
		t.Fatal("prefix manifest has no assignment")
	}
	want, err := seq.PartitionByPrefix(db, 4)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := OpenDir(dir, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	if len(sh.Indexes) != 4 || sh.Frontier == nil || sh.Prefixes == nil {
		t.Fatalf("prefix mode opened %d indexes, frontier %v, prefixes %v",
			len(sh.Indexes), sh.Frontier, sh.Prefixes)
	}
	// The restored assignment must route every (first, second) pair to the
	// same shard as the build-time partition.
	width := db.Alphabet().Size()
	for first := 0; first <= width; first++ {
		for second := 0; second <= width; second++ {
			if got, w := sh.Prefixes.Owner(byte(first), byte(second)), want.Owner(byte(first), byte(second)); got != w {
				t.Fatalf("Owner(%d,%d) = %d after round trip, want %d", first, second, got, w)
			}
		}
		if first < width {
			if got, w := sh.Prefixes.Split(byte(first)), want.Split(byte(first)); got != w {
				t.Fatalf("Split(%d) = %v after round trip, want %v", first, got, w)
			}
		}
	}
	seen := map[*Index]bool{}
	for _, idx := range sh.Indexes {
		if seen[idx] {
			t.Fatal("two shards share one index handle; each must have its own pool")
		}
		seen[idx] = true
	}
}

// TestManifestValidation exercises the manifest's rejection paths.
func TestManifestValidation(t *testing.T) {
	base := func() *Manifest {
		return &Manifest{
			Version: ManifestVersion, Partition: PartitionSequence, Shards: 2,
			Alphabet: "protein", BlockSize: 2048, NumSequences: 2, TotalResidues: 10,
			ShardFiles:  []string{"shard-0.oasis", "shard-1.oasis"},
			GlobalIndex: [][]int{{0}, {1}},
		}
	}
	cases := map[string]func(*Manifest){
		"bad version":      func(m *Manifest) { m.Version = 99 },
		"no shards":        func(m *Manifest) { m.Shards = 0 },
		"bad alphabet":     func(m *Manifest) { m.Alphabet = "klingon" },
		"bad partition":    func(m *Manifest) { m.Partition = "hash" },
		"file count":       func(m *Manifest) { m.ShardFiles = m.ShardFiles[:1] },
		"global maps":      func(m *Manifest) { m.GlobalIndex = nil },
		"absolute file":    func(m *Manifest) { m.ShardFiles[0] = "/etc/passwd" },
		"path in file":     func(m *Manifest) { m.ShardFiles[0] = "../shard-0.oasis" },
		"prefix no assign": func(m *Manifest) { m.Partition = PartitionPrefix; m.ShardFiles = m.ShardFiles[:1] },
		"prefix file count": func(m *Manifest) {
			m.Partition = PartitionPrefix
			m.PrefixAssignment = &seq.PrefixAssignment{Shards: 2}
		},
	}
	for name, mutate := range cases {
		m := base()
		mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, m)
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	// Versions 1 and 2 can only name index files Open refuses: they are
	// refused here, in Open's words, not half-read.
	for _, v := range []int{1, 2} {
		m := base()
		m.Version = v
		want := fmt.Sprintf("manifest version %d, this build reads only version 3: rebuild the index with oasis-build", v)
		if err := m.Validate(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("version %d manifest: Validate returned %v, want %q", v, err, want)
		}
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
// lossless.  The seed corpus includes both partition modes.
func FuzzManifestRoundTrip(f *testing.F) {
	db, err := seq.DatabaseFromStrings(seq.Protein, "ACDEFGHIKL", "MNPQRSTVWY", "ACAC")
	if err != nil {
		f.Fatal(err)
	}
	for _, prefix := range []bool{false, true} {
		dir := f.TempDir()
		if _, _, err := BuildSharded(dir, db, ShardedBuildOptions{Shards: 2, PartitionByPrefix: prefix}); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, ManifestName))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
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
