package diskst

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/seq"
	"repro/internal/suffixtree"
)

// treeOf is the suffix tree Commit writes for a database of delta sequences.
func treeOf(t *testing.T, db *seq.Database) *suffixtree.Tree {
	t.Helper()
	tree, err := suffixtree.BuildUkkonen(db)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// compactedTestDir builds a two-shard directory and commits one generation
// with a delta layer and a tombstone into it.
func compactedTestDir(t *testing.T) string {
	t.Helper()
	path := t.TempDir()
	if _, _, err := BuildSharded(path, manifestTestDB(t), ShardedBuildOptions{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDir(path, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	delta, err := seq.DatabaseFromStrings(seq.Protein, "WYWYACDEF", "KLMKLM")
	if err != nil {
		t.Fatal(err)
	}
	idx, err := d.Commit(3, treeOf(t, delta), []int{4, 1})
	if err != nil {
		t.Fatal(err)
	}
	if idx == nil || d.Generation() != 3 || len(d.Deltas()) != 1 || d.Deltas()[0] != idx {
		t.Fatalf("commit adopted generation %d with deltas %+v, returned %v", d.Generation(), d.Deltas(), idx)
	}
	return path
}

// TestCommitSweepsCrashLeftovers plants what a crashed Commit can leave — a
// temporary delta, a delta renamed into place but never named by a manifest, a
// staged manifest — beside a compacted directory.  Opening must not touch
// them (a reader cannot tell them from a commit in flight in another
// process); the writer's next Commit must remove exactly those: every file
// the old manifest names stays byte-identical, and a file of no known kind is
// not touched.
func TestCommitSweepsCrashLeftovers(t *testing.T) {
	path := compactedTestDir(t)
	named := map[string][]byte{}
	entries, err := os.ReadDir(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(path, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		named[e.Name()] = data
	}
	if len(named) != 4 || named["delta-000003.oasis"] == nil {
		t.Fatalf("compacted directory holds %d files, want manifest, two shards and delta-000003.oasis", len(named))
	}
	leftovers := []string{"delta-000099.oasis", "delta-000099.oasis.tmp", "manifest.json.tmp"}
	for _, name := range append(leftovers, "notes.txt") {
		if err := os.WriteFile(filepath.Join(path, name), []byte("left by a crash"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	d, err := OpenDir(path, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Generation() != 3 || len(d.Deltas()) != 1 || len(d.Tombstones()) != 2 || d.Tombstones()[0] != 1 {
		t.Fatalf("reopened at generation %d with %d deltas, tombstones %v", d.Generation(), len(d.Deltas()), d.Tombstones())
	}
	for _, name := range leftovers {
		if _, err := os.Stat(filepath.Join(path, name)); err != nil {
			t.Errorf("opening the directory touched %s: %v", name, err)
		}
	}
	if _, err := d.Commit(4, nil, []int{1, 4, 5}); err != nil {
		t.Fatal(err)
	}
	for _, name := range leftovers {
		if _, err := os.Stat(filepath.Join(path, name)); !os.IsNotExist(err) {
			t.Errorf("%s survived the sweep (stat: %v)", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(path, "notes.txt")); err != nil {
		t.Errorf("the sweep touched a file it cannot classify: %v", err)
	}
	delete(named, ManifestName) // rewritten by the commit
	for name, want := range named {
		if got, err := os.ReadFile(filepath.Join(path, name)); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s changed under the sweep (read: %v)", name, err)
		}
	}
}

// TestDirCommitBesideReaders commits generations while other goroutines read
// the directory's description and pool statistics (what /metrics does beside
// a compaction); run under -race it holds Commit to replacing the generation,
// never extending it in place.
func TestDirCommitBesideReaders(t *testing.T) {
	path := compactedTestDir(t)
	d, err := OpenDir(path, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if pools, deltas := d.PoolStats(), d.Deltas(); len(pools) < 2+1 || len(deltas) < 1 {
					t.Errorf("a reader saw %d pools and %d deltas", len(pools), len(deltas))
					return
				}
				_, _ = d.Generation(), d.Tombstones()
			}
		}()
	}
	for gen := uint64(4); gen < 9; gen++ {
		delta, err := seq.DatabaseFromStrings(seq.Protein, "ACDEFGHIKL")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Commit(gen, treeOf(t, delta), []int{1, 4}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if got := len(d.PoolStats()); got != 2+6 {
		t.Fatalf("%d pools after six commits over two shards, want 8", got)
	}
}
