package suffixtree

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/seq"
)

// Every snapshot of the online builder (a Build over the sequences appended so
// far) must be node for node identical to the batch Ukkonen construction over
// the same prefix of sequences — this is the property the engine's delta
// shard rides on.
func TestOnlineBuilderSnapshotsMatchBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	cases := [][]string{
		{"AGTACGCCTAG"},
		{"A"},
		{"ACGT", "ACGT", "ACGT"},
		{"AG", "AGA", "GAG", "A", "TTTTT"},
	}
	for i := 0; i < 5; i++ {
		var c []string
		for j := 0; j < 2+rng.Intn(5); j++ {
			c = append(c, randomDNAString(rng, 1+rng.Intn(50)))
		}
		cases = append(cases, c)
	}
	for ci, strs := range cases {
		ob, err := NewOnlineBuilder(seq.DNA)
		if err != nil {
			t.Fatal(err)
		}
		for k, s := range strs {
			sq, err := seq.NewSequence(seq.DNA, fmt.Sprintf("seq%d", k), "", s)
			if err != nil {
				t.Fatal(err)
			}
			if err := ob.Append(sq); err != nil {
				t.Fatalf("case %d append %d: %v", ci, k, err)
			}
			// Snapshot after EVERY append, and compare against a from-scratch
			// build over the same prefix.
			tree, db, err := ob.Snapshot()
			if err != nil {
				t.Fatalf("case %d snapshot %d: %v", ci, k, err)
			}
			if err := tree.Validate(); err != nil {
				t.Fatalf("case %d snapshot %d: %v", ci, k, err)
			}
			want, err := seq.DatabaseFromStrings(seq.DNA, strs[:k+1]...)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := BuildUkkonen(want)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameNodes(tree, ref); err != nil {
				t.Fatalf("case %d: snapshot after %d appends differs from batch build: %v", ci, k+1, err)
			}
			if db.NumSequences() != k+1 || db.TotalResidues() != want.TotalResidues() {
				t.Fatalf("case %d: snapshot database mismatch", ci)
			}
		}
	}
}

// Snapshots must be immune to later appends: take one, keep appending, and
// verify the old snapshot still validates and answers FindAll identically to
// a batch build of its own prefix.
func TestOnlineBuilderSnapshotImmutability(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	ob, err := NewOnlineBuilder(seq.DNA)
	if err != nil {
		t.Fatal(err)
	}
	var strs []string
	type snap struct {
		tree *Tree
		n    int
	}
	var snaps []snap
	for k := 0; k < 12; k++ {
		s := randomDNAString(rng, 1+rng.Intn(40))
		strs = append(strs, s)
		sq, err := seq.NewSequence(seq.DNA, fmt.Sprintf("seq%d", k), "", s)
		if err != nil {
			t.Fatal(err)
		}
		if err := ob.Append(sq); err != nil {
			t.Fatal(err)
		}
		if k%3 == 0 {
			tree, _, err := ob.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			snaps = append(snaps, snap{tree: tree, n: k + 1})
		}
	}
	for _, sn := range snaps {
		if err := sn.tree.Validate(); err != nil {
			t.Fatalf("snapshot at %d sequences no longer valid: %v", sn.n, err)
		}
		db, err := seq.DatabaseFromStrings(seq.DNA, strs[:sn.n]...)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := BuildUkkonen(db)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameNodes(sn.tree, ref); err != nil {
			t.Fatalf("snapshot at %d sequences drifted after later appends: %v", sn.n, err)
		}
	}
}

func TestOnlineBuilderEmptyAndErrors(t *testing.T) {
	if _, err := NewOnlineBuilder(nil); err == nil {
		t.Fatal("nil alphabet accepted")
	}
	ob, err := NewOnlineBuilder(seq.DNA)
	if err != nil {
		t.Fatal(err)
	}
	tree, db, err := ob.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if db.NumSequences() != 0 || tree.NumLeaves() != 0 {
		t.Fatal("empty snapshot not empty")
	}
	if err := ob.Append(seq.Sequence{ID: "bad", Residues: []byte{200}}); err == nil {
		t.Fatal("out-of-alphabet residues accepted")
	}
	if ob.NumSequences() != 0 {
		t.Fatal("failed append mutated the builder")
	}
}
