package diskst

import (
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"repro/internal/bufferpool"
	"repro/internal/core"
	"repro/internal/score"
	"repro/internal/seq"
)

// craft overwrites bytes of a built index and re-stamps the checksum table
// (every block's CRC and the table's own), so no checksum sees the damage.
func craft(t *testing.T, path string, off int64, b []byte) {
	t.Helper()
	f, err := openRW(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
	hdrBuf := make([]byte, headerSize)
	if _, err := f.ReadAt(hdrBuf, 0); err != nil {
		t.Fatal(err)
	}
	hdr, err := decodeHeader(hdrBuf)
	if err != nil {
		t.Fatal(err)
	}
	table, err := checksumFile(f, int64(hdr.checksumOff), int64(hdr.blockSize))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(table, int64(hdr.checksumOff)); err != nil {
		t.Fatal(err)
	}
}

// TestScrubChecksTheTree overwrites one record of a built file with each kind
// of structural violation, with the checksums re-stamped over it, and requires
// the scrub to name it and every traversal of the crafted file — searches,
// LeafPositions of every node, a walk of every edge — to end, with an error or
// a result, inside the watchdog: never hang, panic or read out of range.
func TestScrubChecksTheTree(t *testing.T) {
	// What the crafted values are computed from: the pristine file's geometry
	// and a few of its records.
	pristine := openFixture(t, buildChecksumFixture(t, 512))
	numInternal, concatLen := uint32(pristine.NumInternal()), uint32(pristine.NumLeaves())
	root, node1, err := pristine.readPair(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rootLeaves := make([]byte, (node1.leafStart-root.leafStart)*leafRecordSize) // one per terminator, ascending
	if err := pristine.pool.ReadAt(pristine.leavesFile, rootLeaves, 0); err != nil {
		t.Fatal(err)
	}
	deep := int64(1) // the first node below the root with leaf children
	var deepRec, deepNext internalRecord
	for ; ; deep++ {
		if deepRec, deepNext, err = pristine.readPair(deep, deep+1); err != nil {
			t.Fatal(err)
		} else if deepNext.leafStart > deepRec.leafStart {
			break
		}
	}
	const depthField, edgeField, childField, leafField = 0, 4, 8, 12
	record := func(i int64, field int64) int64 {
		return int64(pristine.hdr.internalOff) + i*internalRecordSize + field
	}
	leafEntry := func(i uint32) int64 { return int64(pristine.hdr.leavesOff) + int64(i)*leafRecordSize }
	u32 := func(vs ...uint32) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		return b
	}
	le := binary.LittleEndian

	for _, tc := range []struct {
		name  string
		off   int64
		bytes []byte
		want  string // in the scrub's description
	}{
		{"child run points back at its node", record(2, childField), u32(2), "do not lie ahead"},
		{"child run past the last node", record(2, childField), u32(numInternal + 5), "do not lie ahead"},
		{"leaf run past the last leaf", record(2, leafField), u32(concatLen + 1), "do not lie ahead"},
		{"leaf runs out of order", record(2, leafField), u32(node1.leafStart - 1), "do not lie ahead"},
		{"sentinel short of the leaves", record(int64(numInternal), leafField), u32(concatLen - 1), "sentinel"},
		{"child no deeper than its parent", record(2, depthField), u32(0), "not a proper child"},
		{"edge outside the symbols", record(2, edgeField), u32(concatLen), "not a proper child"},
		{"leaf run not ascending", leafEntry(0), u32(le.Uint32(rootLeaves[4:]), le.Uint32(rootLeaves[0:])), "does not ascend"},
		{"leaf past its sequence", leafEntry(deepNext.leafStart - 1), u32(concatLen - 1), "past the end of its sequence"},
		{"position listed twice", leafEntry(1), u32(le.Uint32(rootLeaves[0:]) + 1), "appears twice"},
		{"position out of range", leafEntry(node1.leafStart - 1), u32(concatLen + 3), "out of range"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := buildChecksumFixture(t, 512)
			craft(t, path, tc.off, tc.bytes)
			rep, err := VerifyIndex(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Problems) != 1 || !strings.Contains(rep.Problems[0].Detail, tc.want) || rep.Problems[0].Block != rep.Problems[0].Offset/512 {
				t.Fatalf("scrub of a file crafted at offset %d reported %+v, want one problem saying %q and naming its block", tc.off, rep.Problems, tc.want)
			}

			done := make(chan struct{})
			go func() {
				defer close(done)
				idx, err := Open(path, bufferpool.New(1<<20, 512))
				if err != nil {
					return // refused outright: also an answer
				}
				defer idx.Close()
				opts := core.Options{Scheme: score.MustScheme(score.UnitDNA(), -1), MinScore: 6}
				for _, q := range []string{"ACGTACGTAC", "GGGGGGGGGG", "TTAGGCATCA", "CATGCATGAA"} {
					if hits, err := core.SearchAll(idx, seq.DNA.MustEncode(q), opts); err == nil && len(hits) > int(pristine.hdr.numSequences) {
						t.Errorf("query %s: %d hits over %d sequences", q, len(hits), pristine.hdr.numSequences)
					}
				}
				for i := int64(0); i < idx.NumInternal(); i++ {
					n := 0
					if err := idx.LeafPositions(core.InternalRef(i), func(int64) bool { n++; return true }); err == nil && n > int(concatLen) {
						t.Errorf("LeafPositions(%d) reported %d positions of %d", i, n, concatLen)
					}
				}
				_ = readWholeTree(idx) // an error or nil; the walk ending is the point
			}()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("a traversal of the crafted file did not end within 5 s")
			}
		})
	}
}
