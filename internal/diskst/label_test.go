package diskst

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/seq"
)

// TestLazyLabelChunkedReads exercises the chunk-refill path of the lazy edge
// labels: a leaf edge much longer than one chunk must be readable both
// sequentially (as the OASIS column sweep does) and via arbitrary windows,
// and the bytes must match the in-memory tree's label.
func TestLazyLabelChunkedReads(t *testing.T) {
	// One long sequence with a unique prefix so the root has a leaf child
	// whose edge spans several chunks.
	long := "ACGT" + strings.Repeat("GATTACAT", 40) // 324 residues
	db, err := seq.DatabaseFromStrings(seq.DNA, long)
	if err != nil {
		t.Fatal(err)
	}
	idx, _, _ := buildIndex(t, db, BuildOptions{BlockSize: 128})
	mem, err := core.BuildMemoryIndex(db)
	if err != nil {
		t.Fatal(err)
	}

	collectLabels := func(x core.Index) map[string]string {
		out := map[string]string{}
		err := x.VisitChildren(x.Root(), 0, func(child core.NodeRef, label core.EdgeLabel) error {
			if !child.IsLeaf() {
				return nil
			}
			// Read the label one symbol at a time (the expand() access
			// pattern), then compare against a whole-label read.
			var sb strings.Builder
			for j := 0; j < label.Len(); j++ {
				s, err := label.Symbols(j, j+1)
				if err != nil {
					return err
				}
				sb.WriteByte(s[0])
			}
			whole, err := core.LabelBytes(label)
			if err != nil {
				return err
			}
			if sb.String() != string(whole) {
				t.Fatalf("sequential reads disagree with whole-label read for leaf %d", child.LeafPos())
			}
			out[keyOf(child)] = sb.String()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	got := collectLabels(idx)
	want := collectLabels(mem)
	if len(got) == 0 {
		t.Fatal("no leaf children under the root")
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("label mismatch for %s: disk %d bytes, memory %d bytes", k, len(got[k]), len(v))
		}
	}
}

func keyOf(ref core.NodeRef) string {
	if ref.IsLeaf() {
		return "L" + string(rune(ref.LeafPos()))
	}
	return "N" + string(rune(ref.InternalIndex()))
}

// TestLazyLabelBoundsChecking verifies the error paths of the lazy label.
func TestLazyLabelBoundsChecking(t *testing.T) {
	db, _ := seq.DatabaseFromStrings(seq.DNA, "ACGTACGTACGT")
	idx, _, _ := buildIndex(t, db, BuildOptions{})
	err := idx.VisitChildren(idx.Root(), 0, func(child core.NodeRef, label core.EdgeLabel) error {
		if _, err := label.Symbols(-1, 0); err == nil {
			t.Fatal("negative from accepted")
		}
		if _, err := label.Symbols(0, label.Len()+1); err == nil {
			t.Fatal("past-end read accepted")
		}
		if _, err := label.Symbols(2, 1); err == nil {
			t.Fatal("inverted range accepted")
		}
		if s, err := label.Symbols(0, 0); err != nil || len(s) != 0 {
			t.Fatal("empty range should succeed")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
