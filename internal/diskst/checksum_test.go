package diskst

import (
	"encoding/binary"
	"errors"
	"fmt"
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

// buildChecksumFixture writes an index for a small random database and
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
		return idx.VisitChildren(ref, depth, func(c core.NodeRef, label []byte) error {
			if c.IsLeaf() {
				return nil
			}
			if err := idx.LeafPositions(c, func(int64) bool { return true }); err != nil {
				return err
			}
			return walk(c, depth+len(label))
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

// TestChecksummedOpenAndScrub pins the happy path: a freshly written file
// opens, scrubs clean, and reads are verified.
func TestChecksummedOpenAndScrub(t *testing.T) {
	path := buildChecksumFixture(t, 512)
	if err := readWholeTree(openFixture(t, path)); err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Blocks == 0 {
		t.Fatalf("clean file scrub: %+v", rep)
	}
}

// TestCorruptionDetectedOnRead flips one byte in a data block and requires
// a typed ChecksumError naming the file, block and offset, and a matching
// problem from the deep scrub.  A block of the symbol region, which Open reads
// whole, fails the open: an *OpenError wrapping the ChecksumError.  A block of
// the internal-node region, read through the pool, fails the read that meets
// it.
func TestCorruptionDetectedOnRead(t *testing.T) {
	pristine := openFixture(t, buildChecksumFixture(t, 512))
	for _, region := range []struct {
		name string
		off  int64
	}{
		{"symbols", int64(pristine.hdr.symbolsOff) + 188},
		{"internal", int64(pristine.hdr.internalOff) + 188},
	} {
		t.Run(region.name, func(t *testing.T) {
			path := buildChecksumFixture(t, 512)
			f, err := openRW(path)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt([]byte{0xFF}, region.off); err != nil {
				t.Fatal(err)
			}
			f.Close()
			block := region.off / 512

			rep, err := VerifyIndex(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Problems) != 1 || rep.Problems[0].Block != block {
				t.Fatalf("scrub reported %+v, want block %d", rep.Problems, block)
			}

			before := Counters().ChecksumFailures
			idx, err := Open(path, bufferpool.New(1<<20, 512))
			if err == nil {
				defer idx.Close()
				err = readWholeTree(idx)
			} else {
				var oe *OpenError
				if !errors.As(err, &oe) || oe.Path != path || region.name != "symbols" {
					t.Fatalf("open failed with %v", err)
				}
			}
			var ce *ChecksumError
			if !errors.As(err, &ce) {
				t.Fatalf("got %v, want a ChecksumError", err)
			}
			if ce.Path != path || ce.Block != block || ce.Offset != block*512 {
				t.Fatalf("checksum error detail wrong: %+v", ce)
			}
			if Counters().ChecksumFailures == before {
				t.Fatal("checksum failure counter did not move")
			}
		})
	}
}

// TestOldFormatRefused rewrites a file's version field to each retired format
// (1: no checksum region, 2: leaves chained by sibling pointers) and requires
// Open to refuse it with an *OpenError naming the file, the version and the
// remedy — not to read it with checksums off, which is what version 1 used to
// mean — and the scrub to report the same.
func TestOldFormatRefused(t *testing.T) {
	path := buildChecksumFixture(t, 512)
	patch := func(off int64, b []byte) {
		t.Helper()
		f, err := openRW(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteAt(b, off); err != nil {
			t.Fatal(err)
		}
	}
	for _, version := range []uint32{1, 2} {
		patch(8, binary.LittleEndian.AppendUint32(nil, version))
		_, err := Open(path, bufferpool.New(1<<20, 512))
		var oe *OpenError
		if !errors.As(err, &oe) || oe.Path != path {
			t.Fatalf("version %d opened with %v, want an *OpenError naming the file", version, err)
		}
		for _, want := range []string{fmt.Sprintf("version %d", version), "rebuild the index with oasis-build"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("version %d: error %q does not say %q", version, err, want)
			}
		}
		rep, err := VerifyIndex(path)
		if err != nil {
			t.Fatal(err)
		}
		if rep.OK() {
			t.Fatalf("scrub passed a version %d file", version)
		}
	}

	// The header's counts size the pool's page tables before any checksum has
	// been verified: a wild node count must be an open error, not an
	// allocation.
	patch(8, binary.LittleEndian.AppendUint32(nil, Version))
	patch(40, binary.LittleEndian.AppendUint64(nil, 1<<59))
	var oe *OpenError
	if _, err := Open(path, bufferpool.New(1<<20, 512)); !errors.As(err, &oe) {
		t.Fatalf("header claiming 2^59 internal nodes opened with %v, want an *OpenError", err)
	}
}

// TestTruncatedShardTypedError truncates one shard file of a sharded
// directory and requires OpenDir to fail with a typed OpenError naming
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

	_, err = OpenDir(dir, 1<<20, false)
	if err == nil {
		t.Fatal("OpenDir succeeded on a truncated shard")
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
	sh, err := OpenDir(dir, 1<<20, true)
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
