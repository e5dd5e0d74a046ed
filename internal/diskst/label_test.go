package diskst

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bufferpool"
	"repro/internal/core"
	"repro/internal/seq"
)

// TestEdgeLabelsSpellTheirSuffixes reads every edge label of indexes whose
// symbol region is several pages long, at page sizes 512 and 2048 (and the
// 128-byte blocks behind 512-byte pages the other tests use): each label
// must equal the bytes Catalog().Residues returns for that stretch of the
// sequence.  The same over straddleCorpus, whose leaf and child-record runs
// cross page boundaries.
func TestEdgeLabelsSpellTheirSuffixes(t *testing.T) {
	long := "ACGT" + strings.Repeat("GATTACAT", 320) // 2564 residues
	db, err := seq.DatabaseFromStrings(seq.DNA, long, "CCGGAACC")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		db                  *seq.Database
		blockSize, pageSize int
	}{{db, 128, 512}, {db, 512, 512}, {db, 2048, 2048}, {straddleCorpus(t), 512, 512}, {straddleCorpus(t), 2048, 2048}} {
		path := filepath.Join(t.TempDir(), "index.oasis")
		if _, err := Build(path, tc.db, BuildOptions{BlockSize: tc.blockSize}); err != nil {
			t.Fatal(err)
		}
		pool := bufferpool.New(1<<20, tc.pageSize)
		idx, err := Open(path, pool)
		if err != nil {
			t.Fatal(err)
		}
		if tc.db != db {
			requireStraddles(t, idx)
		}
		cat := idx.Catalog()
		// want returns the n symbols from global position pos on.
		want := func(pos int64, n int) []byte {
			si, off, err := tc.db.Locate(pos)
			if err != nil {
				t.Fatal(err)
			}
			res, err := cat.Residues(si)
			if err != nil {
				t.Fatal(err)
			}
			return append(res, seq.Terminator)[off : int(off)+n]
		}
		edges := 0
		var walk func(ref core.NodeRef, depth int)
		walk = func(ref core.NodeRef, depth int) {
			type child struct {
				ref   core.NodeRef
				depth int
			}
			var kids []child
			err := idx.VisitChildren(ref, depth, func(c core.NodeRef, label []byte) error {
				edges++
				// Any leaf below the child spells the child's label.
				leaf := int64(-1)
				if err := idx.LeafPositions(c, func(pos int64) bool { leaf = pos; return false }); err != nil {
					return err
				}
				if !c.IsLeaf() {
					kids = append(kids, child{c, depth + len(label)})
				}
				if !bytes.Equal(label, want(leaf+int64(depth), len(label))) {
					t.Fatalf("page size %d: edge above leaf %d differs from the catalog's residues", tc.pageSize, leaf)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range kids {
				walk(k.ref, k.depth)
			}
		}
		walk(idx.Root(), 0)
		if residues := int(tc.db.TotalResidues()); edges < residues {
			t.Fatalf("page size %d: walked %d edges of a %d-residue tree", tc.pageSize, edges, residues)
		}
		if n := pool.PinnedPages(); n != 0 {
			t.Fatalf("page size %d: %d pages left pinned", tc.pageSize, n)
		}
		idx.Close()
	}
}
