package diskst

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bufferpool"
	"repro/internal/core"
	"repro/internal/faultpoint"
	"repro/internal/seq"
)

// buildChecksumFixture writes a v2 index for a small random database and
// returns its path.
func buildChecksumFixture(t *testing.T, blockSize int) string {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	letters := seq.DNA.Letters()
	strs := make([]string, 8)
	for i := range strs {
		b := make([]byte, 30+rng.Intn(50))
		for j := range b {
			b[j] = letters[rng.Intn(len(letters))]
		}
		strs[i] = string(b)
	}
	db, err := seq.DatabaseFromStrings(seq.DNA, strs...)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.oasis")
	if _, err := Build(path, db, BuildOptions{BlockSize: blockSize}); err != nil {
		t.Fatal(err)
	}
	return path
}

// readWholeTree touches every internal node, edge label and leaf-position
// list of the index, returning the first read error — a full sweep of all
// three on-disk sections through the verifying reader.
func readWholeTree(idx *Index) error {
	var walk func(ref core.NodeRef, depth int) error
	walk = func(ref core.NodeRef, depth int) error {
		return idx.VisitChildren(ref, depth, func(c core.NodeRef, l core.EdgeLabel) error {
			full, err := core.LabelBytes(l)
			if err != nil {
				return err
			}
			if c.IsLeaf() {
				return nil
			}
			if err := idx.LeafPositions(c, func(int64) bool { return true }); err != nil {
				return err
			}
			return walk(c, depth+len(full))
		})
	}
	if err := idx.LeafPositions(idx.Root(), func(int64) bool { return true }); err != nil {
		return err
	}
	return walk(idx.Root(), 0)
}

func openFixture(t *testing.T, path string) *Index {
	t.Helper()
	idx, err := Open(path, bufferpool.New(1<<20, 512))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { idx.Close() })
	return idx
}

// TestChecksummedOpenAndScrub pins the happy path: a freshly written v2 file
// opens with checksums armed, scrubs clean, and reads are verified.
func TestChecksummedOpenAndScrub(t *testing.T) {
	path := buildChecksumFixture(t, 512)
	idx := openFixture(t, path)
	if !idx.ChecksumsEnabled() {
		t.Fatal("fresh v2 index opened without checksums")
	}
	rep, err := VerifyIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.ChecksumsUnavailable || rep.Blocks == 0 {
		t.Fatalf("clean file scrub: %+v", rep)
	}
}

// TestCorruptionDetectedOnRead flips one byte in a data block and requires a
// typed ChecksumError (with the file, block and offset) from reads, and a
// matching problem from the deep scrub.
func TestCorruptionDetectedOnRead(t *testing.T) {
	path := buildChecksumFixture(t, 512)
	f, err := openRW(path)
	if err != nil {
		t.Fatal(err)
	}
	// Damage a byte well past the header, inside the symbols/nodes region.
	if _, err := f.WriteAt([]byte{0xFF}, 700); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rep, err := VerifyIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("scrub missed the corrupted block")
	}
	found := false
	for _, p := range rep.Problems {
		if p.Block == 700/512 {
			found = true
		}
	}
	if !found {
		t.Fatalf("scrub reported the wrong block: %+v", rep.Problems)
	}

	// Opening still verifies lazily: the corrupt block surfaces a
	// ChecksumError once something reads it.
	idx, err := Open(path, bufferpool.New(1<<20, 512))
	if err != nil {
		var ce *ChecksumError
		if !errors.As(err, &ce) {
			t.Fatalf("open failed without a ChecksumError: %v", err)
		}
		return
	}
	defer idx.Close()
	readErr := readWholeTree(idx)
	var ce *ChecksumError
	if !errors.As(readErr, &ce) {
		t.Fatalf("reading the corrupt index: got %v, want a ChecksumError", readErr)
	}
	if ce.Path != path || ce.Block != 700/512 {
		t.Fatalf("checksum error detail wrong: %+v", ce)
	}
	if Counters().ChecksumFailures == 0 {
		t.Fatal("checksum failure counter did not move")
	}
}

// TestV1CompatibilityRead rewrites a v2 file's version field to v1 (the
// legacy format without a checksum region) and requires it to open and read
// with checksums reported unavailable rather than failing.
func TestV1CompatibilityRead(t *testing.T) {
	path := buildChecksumFixture(t, 512)
	f, err := openRW(path)
	if err != nil {
		t.Fatal(err)
	}
	var v [4]byte
	binary.LittleEndian.PutUint32(v[:], versionNoChecksums)
	if _, err := f.WriteAt(v[:], 8); err != nil {
		t.Fatal(err)
	}
	f.Close()

	idx := openFixture(t, path)
	if idx.ChecksumsEnabled() {
		t.Fatal("v1 file claims checksums")
	}
	// The suffix tree must still be fully readable (the v2 checksum table at
	// the tail is simply ignored dead weight for a v1 reader).
	if err := readWholeTree(idx); err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ChecksumsUnavailable {
		t.Fatal("scrub of a v1 file did not flag checksums unavailable")
	}
	if !rep.OK() {
		t.Fatalf("structurally clean v1 file failed the scrub: %+v", rep.Problems)
	}

	// No checksum guards a v1 header, and its counts size the pool's page
	// tables: a wild node count must be an open error, not an allocation.
	if f, err = openRW(path); err != nil {
		t.Fatal(err)
	}
	var wild [8]byte
	binary.LittleEndian.PutUint64(wild[:], 1<<59)
	if _, err := f.WriteAt(wild[:], 40); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var oe *OpenError
	if _, err := Open(path, bufferpool.New(1<<20, 512)); !errors.As(err, &oe) {
		t.Fatalf("v1 header claiming 2^59 internal nodes opened with %v, want an *OpenError", err)
	}
}

// TestTruncatedShardTypedError truncates one shard file of a sharded
// directory and requires OpenSharded to fail with a typed OpenError naming
// the file and byte offset.
func TestTruncatedShardTypedError(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	letters := seq.DNA.Letters()
	strs := make([]string, 9)
	for i := range strs {
		b := make([]byte, 40+rng.Intn(40))
		for j := range b {
			b[j] = letters[rng.Intn(len(letters))]
		}
		strs[i] = string(b)
	}
	db, err := seq.DatabaseFromStrings(seq.DNA, strs...)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "idx")
	if _, _, err := BuildSharded(dir, db, ShardedBuildOptions{
		BlockSize: 512,
		Shards:    3,
	}); err != nil {
		t.Fatal(err)
	}
	target := filepath.Join(dir, "shard-2.oasis")
	if err := os.Truncate(target, 64); err != nil {
		t.Fatal(err)
	}

	_, err = OpenSharded(dir, OpenOptions{PoolBytesPerShard: 1 << 20})
	if err == nil {
		t.Fatal("OpenSharded succeeded on a truncated shard")
	}
	var oe *OpenError
	if !errors.As(err, &oe) {
		t.Fatalf("got %v, want a typed *OpenError", err)
	}
	if !strings.Contains(oe.Path, "shard-2.oasis") {
		t.Fatalf("open error names %q, want the truncated shard file", oe.Path)
	}
	if oe.Offset != 0 {
		t.Fatalf("truncated header should fail at offset 0, got %d", oe.Offset)
	}

	// AllowDegraded turns the same failure into a quarantine.
	sh, err := OpenSharded(dir, OpenOptions{PoolBytesPerShard: 1 << 20, AllowDegraded: true})
	if err != nil {
		t.Fatalf("AllowDegraded open failed: %v", err)
	}
	defer sh.Close()
	if len(sh.Quarantined) != 1 || sh.Quarantined[0].Shard != 2 {
		t.Fatalf("quarantine list wrong: %+v", sh.Quarantined)
	}
}

// TestTransientReadErrorRetried injects a bounded run of read errors and
// requires the reader's retry loop to absorb them invisibly.
func TestTransientReadErrorRetried(t *testing.T) {
	defer faultpoint.Reset()
	path := buildChecksumFixture(t, 512)
	before := Counters().ReadRetries
	faultpoint.Enable(faultpoint.SiteDiskRead, faultpoint.Spec{Mode: faultpoint.ModeError, Times: 2})
	idx := openFixture(t, path)
	if err := readWholeTree(idx); err != nil {
		t.Fatalf("transient errors not absorbed: %v", err)
	}
	if Counters().ReadRetries <= before {
		t.Fatal("retry counter did not move")
	}
}
