package seq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestDatabaseConcatLayout(t *testing.T) {
	db, err := DatabaseFromStrings(DNA, "ACGT", "GG", "T")
	if err != nil {
		t.Fatal(err)
	}
	if db.NumSequences() != 3 {
		t.Fatalf("NumSequences = %d", db.NumSequences())
	}
	if db.TotalResidues() != 7 {
		t.Fatalf("TotalResidues = %d", db.TotalResidues())
	}
	if db.ConcatLen() != 10 { // 7 residues + 3 terminators
		t.Fatalf("ConcatLen = %d", db.ConcatLen())
	}
	wantStarts := []int64{0, 5, 8}
	for i, w := range wantStarts {
		if db.SequenceStart(i) != w {
			t.Fatalf("SequenceStart(%d) = %d, want %d", i, db.SequenceStart(i), w)
		}
	}
	if db.SequenceEnd(0) != 4 || db.SequenceEnd(1) != 7 || db.SequenceEnd(2) != 9 {
		t.Fatalf("sequence ends wrong: %d %d %d", db.SequenceEnd(0), db.SequenceEnd(1), db.SequenceEnd(2))
	}
	// Terminators in the right places.
	for _, i := range []int{0, 1, 2} {
		if db.Concat()[db.SequenceEnd(i)] != Terminator {
			t.Fatalf("expected terminator at end of sequence %d", i)
		}
	}
}

func TestDatabaseLocate(t *testing.T) {
	db := MustDatabase(DNA, []Sequence{
		{ID: "a", Residues: DNA.MustEncode("ACGT")},
		{ID: "b", Residues: DNA.MustEncode("GG")},
	})
	cases := []struct {
		pos   int64
		seq   int
		local int64
	}{
		{0, 0, 0}, {3, 0, 3}, {4, 0, 4}, // 4 is sequence 0's terminator
		{5, 1, 0}, {6, 1, 1}, {7, 1, 2},
	}
	for _, c := range cases {
		si, loc, err := db.Locate(c.pos)
		if err != nil {
			t.Fatalf("Locate(%d): %v", c.pos, err)
		}
		if si != c.seq || loc != c.local {
			t.Fatalf("Locate(%d) = (%d,%d), want (%d,%d)", c.pos, si, loc, c.seq, c.local)
		}
	}
	if _, _, err := db.Locate(-1); err == nil {
		t.Fatal("expected error for negative position")
	}
	if _, _, err := db.Locate(db.ConcatLen()); err == nil {
		t.Fatal("expected error for out-of-range position")
	}

	// The Locator behind it against a plain binary search, on layouts that
	// stress the block table: runs of 1-residue sequences, one huge sequence
	// stretching the blocks, and both at once — every sequence's first
	// position, its terminator, and random positions in between.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		lens := make([]int64, 1+rng.Intn(300))
		for i := range lens {
			lens[i] = 1
			if trial%3 != 0 {
				lens[i] += rng.Int63n(40)
			}
		}
		if trial%2 == 0 {
			lens[rng.Intn(len(lens))] = 50_000 + rng.Int63n(50_000)
		}
		loc := NewLocator(len(lens), func(i int) int64 { return lens[i] })
		starts := make([]int64, len(lens))
		for i := 1; i < len(lens); i++ {
			starts[i] = starts[i-1] + lens[i-1] + 1
		}
		end := starts[len(lens)-1] + lens[len(lens)-1] + 1
		if loc.Len() != end {
			t.Fatalf("trial %d: Len = %d, want %d", trial, loc.Len(), end)
		}
		probes := []int64{0, end - 1}
		for i := range starts {
			probes = append(probes, starts[i], starts[i]+lens[i], starts[i]+rng.Int63n(lens[i]+1))
		}
		for _, pos := range probes {
			want := sort.Search(len(starts), func(i int) bool { return starts[i] > pos }) - 1
			si, off, err := loc.Locate(pos)
			if err != nil || si != want || off != pos-starts[want] {
				t.Fatalf("trial %d: Locate(%d) = (%d,%d,%v), want (%d,%d)", trial, pos, si, off, err, want, pos-starts[want])
			}
		}
		for _, pos := range []int64{-1, end, end + 7} {
			if _, _, err := loc.Locate(pos); err == nil {
				t.Fatalf("trial %d: Locate(%d) succeeded past the view [0,%d)", trial, pos, end)
			}
		}
	}
}

func TestDatabaseSuffixEnd(t *testing.T) {
	db := MustDatabase(DNA, []Sequence{
		{ID: "a", Residues: DNA.MustEncode("ACGT")},
		{ID: "b", Residues: DNA.MustEncode("GGC")},
	})
	if got := db.SuffixEnd(2); got != 4 {
		t.Fatalf("SuffixEnd(2) = %d, want 4", got)
	}
	if got := db.SuffixEnd(6); got != 8 {
		t.Fatalf("SuffixEnd(6) = %d, want 8", got)
	}
}

func TestDatabaseLookup(t *testing.T) {
	db := MustDatabase(DNA, []Sequence{
		{ID: "alpha", Residues: DNA.MustEncode("A")},
		{ID: "beta", Residues: DNA.MustEncode("C")},
	})
	if db.Lookup("beta") != 1 {
		t.Fatal("Lookup(beta) failed")
	}
	if db.Lookup("missing") != -1 {
		t.Fatal("Lookup(missing) should be -1")
	}
}

func TestDatabaseStats(t *testing.T) {
	db := MustDatabase(DNA, []Sequence{
		{ID: "a", Residues: DNA.MustEncode("AACG")},
		{ID: "b", Residues: DNA.MustEncode("TT")},
	})
	st := db.ComputeStats()
	if st.NumSequences != 2 || st.TotalResidues != 6 {
		t.Fatalf("stats basic fields wrong: %+v", st)
	}
	if st.MinLength != 2 || st.MaxLength != 4 {
		t.Fatalf("stats lengths wrong: %+v", st)
	}
	if st.MeanLength != 3 {
		t.Fatalf("mean length = %v", st.MeanLength)
	}
	codeA, _ := DNA.Code('A')
	if st.Frequencies[codeA] != 2.0/6.0 {
		t.Fatalf("freq(A) = %v", st.Frequencies[codeA])
	}
	var sum float64
	for _, f := range st.Frequencies {
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("frequencies do not sum to 1: %v", sum)
	}
}

func TestDatabaseRejectsInvalidCodes(t *testing.T) {
	bad := Sequence{ID: "x", Residues: []byte{0, 1, 200}}
	if _, err := NewDatabase(DNA, []Sequence{bad}); err == nil {
		t.Fatal("expected error for out-of-alphabet code")
	}
	if _, err := NewDatabase(nil, nil); err == nil {
		t.Fatal("expected error for nil alphabet")
	}
}

func TestEmptyDatabase(t *testing.T) {
	db, err := NewDatabase(DNA, nil)
	if err != nil {
		t.Fatal(err)
	}
	if db.ConcatLen() != 0 || db.NumSequences() != 0 {
		t.Fatal("empty database should have no content")
	}
	st := db.ComputeStats()
	if st.TotalResidues != 0 {
		t.Fatal("empty stats wrong")
	}
}

// Property: Locate is the inverse of (SequenceStart + local) for every
// residue position of every sequence.
func TestDatabaseLocateProperty(t *testing.T) {
	f := func(lens []uint8) bool {
		var seqs []Sequence
		for i, l := range lens {
			n := int(l%17) + 1
			res := make([]byte, n)
			for j := range res {
				res[j] = byte((i + j) % DNA.Size())
			}
			seqs = append(seqs, Sequence{ID: "s", Residues: res})
		}
		db, err := NewDatabase(DNA, seqs)
		if err != nil {
			return false
		}
		for i := range seqs {
			for j := 0; j < seqs[i].Len(); j++ {
				pos := db.SequenceStart(i) + int64(j)
				si, loc, err := db.Locate(pos)
				if err != nil || si != i || loc != int64(j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
