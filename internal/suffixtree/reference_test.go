package suffixtree_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/diskst"
	"repro/internal/seq"
	"repro/internal/suffixtree"
	"repro/internal/workload"
)

// diskst.Build writes, byte for byte, the file diskst.Write writes from the
// Ukkonen reference's tree, at the default block size and at 512: an index
// the Ukkonen builder wrote is the index Build writes.
func TestBuildWritesUkkonenBytes(t *testing.T) {
	protein, _, err := workload.ProteinDatabase(workload.DefaultProteinConfig(20000))
	if err != nil {
		t.Fatal(err)
	}
	dna, err := workload.DNADatabase(workload.DefaultDNAConfig(20000))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, db := range []*seq.Database{protein, dna} {
		tree, err := suffixtree.UkkonenReference(db)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []diskst.BuildOptions{{}, {BlockSize: 512}} {
			name := fmt.Sprintf("%s block %d", db.Alphabet().Name(), opts.BlockSize)
			want, got := filepath.Join(dir, "ukkonen"), filepath.Join(dir, "build")
			if _, err := diskst.Write(want, tree, opts); err != nil {
				t.Fatal(err)
			}
			if _, err := diskst.Build(got, db, opts); err != nil {
				t.Fatal(err)
			}
			wantBytes, err := os.ReadFile(want)
			if err != nil {
				t.Fatal(err)
			}
			gotBytes, err := os.ReadFile(got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotBytes, wantBytes) {
				t.Fatalf("%s: Build wrote %d bytes that differ from Write's %d", name, len(gotBytes), len(wantBytes))
			}
		}
	}
}

// BenchmarkAblationIndexConstruction compares the two whole-database
// suffix-tree builders over a 400,000-residue protein database: the Ukkonen
// reference (online, child maps, a sort per family) and Build (SA-IS + LCP),
// the construction every index uses.
func BenchmarkAblationIndexConstruction(b *testing.B) {
	db, _, err := workload.ProteinDatabase(workload.DefaultProteinConfig(400_000))
	if err != nil {
		b.Fatal(err)
	}
	for name, build := range map[string]func(*seq.Database) (*suffixtree.Tree, error){
		"ukkonen": suffixtree.UkkonenReference,
		"build":   suffixtree.Build,
	} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := build(db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
