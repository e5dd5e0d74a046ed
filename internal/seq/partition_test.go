package seq

import (
	"math/rand"
	"strings"
	"testing"
)

func randomPartitionDB(t *testing.T, rng *rand.Rand, n, maxLen int) *Database {
	t.Helper()
	letters := DNA.Letters()
	strs := make([]string, n)
	for i := range strs {
		var b strings.Builder
		l := 1 + rng.Intn(maxLen)
		for j := 0; j < l; j++ {
			b.WriteByte(letters[rng.Intn(len(letters))])
		}
		strs[i] = b.String()
	}
	db, err := DatabaseFromStrings(DNA, strs...)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestPartitionCoversEverySequenceOnce: the runs are contiguous and in
// order — concatenated, they are the source database sequence for sequence —
// so every sequence lands in exactly one run, and no run is empty.
func TestPartitionCoversEverySequenceOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		db := randomPartitionDB(t, rng, 1+rng.Intn(40), 120)
		nShards := 1 + rng.Intn(8)
		runs, err := PartitionDatabase(db, nShards)
		if err != nil {
			t.Fatal(err)
		}
		if want := min(nShards, db.NumSequences()); len(runs) != want {
			t.Fatalf("got %d runs for %d sequences and %d shards, want %d", len(runs), db.NumSequences(), nShards, want)
		}
		gi := 0
		for s, run := range runs {
			if run.NumSequences() == 0 {
				t.Fatalf("run %d is empty", s)
			}
			for i := range run.NumSequences() {
				got, want := run.Sequence(i), db.Sequence(gi)
				if got.ID != want.ID || got.Len() != want.Len() {
					t.Fatalf("run %d seq %d: got %s/%d, want global sequence %d %s/%d",
						s, i, got.ID, got.Len(), gi, want.ID, want.Len())
				}
				gi++
			}
		}
		if gi != db.NumSequences() {
			t.Fatalf("runs cover %d sequences, database has %d", gi, db.NumSequences())
		}
	}
}

// TestPartitionNoEmptyRunAroundLongSequence: one sequence longer than
// total/N would pull several cut targets onto the same boundary; each run
// still gets at least one sequence, and the runs still cover the database in
// order.
func TestPartitionNoEmptyRunAroundLongSequence(t *testing.T) {
	for _, long := range []int{0, 2, 5} {
		strs := []string{"AC", "GT", "AC", "GT", "AC", "GT"}
		strs[long] = strings.Repeat("ACGT", 100)
		db, err := DatabaseFromStrings(DNA, strs...)
		if err != nil {
			t.Fatal(err)
		}
		runs, err := PartitionDatabase(db, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) != 4 {
			t.Fatalf("long sequence %d: got %d runs, want 4", long, len(runs))
		}
		n := 0
		for s, run := range runs {
			if run.NumSequences() == 0 {
				t.Fatalf("long sequence %d: run %d is empty", long, s)
			}
			if run.Sequence(0).ID != db.Sequence(n).ID {
				t.Fatalf("long sequence %d: run %d starts at %s, want %s", long, s, run.Sequence(0).ID, db.Sequence(n).ID)
			}
			n += run.NumSequences()
		}
		if n != db.NumSequences() {
			t.Fatalf("long sequence %d: runs cover %d sequences, want %d", long, n, db.NumSequences())
		}
	}
}

func TestPartitionBalancesResidues(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db := randomPartitionDB(t, rng, 200, 300)
	runs, err := PartitionDatabase(db, 4)
	if err != nil {
		t.Fatal(err)
	}
	var min, max int64
	for s, shardDB := range runs {
		r := shardDB.TotalResidues()
		if s == 0 || r < min {
			min = r
		}
		if r > max {
			max = r
		}
	}
	// Cutting at the boundary nearest each quarter keeps the spread within a
	// sequence or two of 50 on a workload of 200; allow a generous margin so
	// the test checks balance, not the exact cut rule.
	if min == 0 || float64(max)/float64(min) > 1.25 {
		t.Fatalf("unbalanced shards: min=%d max=%d residues", min, max)
	}
}

func TestPartitionCapsShardCount(t *testing.T) {
	db := MustDatabase(DNA, []Sequence{mustSeq(t, "a", "ACGT"), mustSeq(t, "b", "GGCC")})
	runs, err := PartitionDatabase(db, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("got %d shards for a 2-sequence database, want 2", len(runs))
	}
	if _, err := PartitionDatabase(db, 0); err == nil {
		t.Fatal("expected an error for shard count 0")
	}
}

func TestPartitionIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := randomPartitionDB(t, rng, 60, 100)
	a, err := PartitionDatabase(db, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PartitionDatabase(db, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("%d runs, then %d", len(a), len(b))
	}
	for s := range a {
		if a[s].NumSequences() != b[s].NumSequences() || a[s].Sequence(0).ID != b[s].Sequence(0).ID {
			t.Fatalf("run %d differs between runs: %d sequences from %s, then %d from %s",
				s, a[s].NumSequences(), a[s].Sequence(0).ID, b[s].NumSequences(), b[s].Sequence(0).ID)
		}
	}
}

func mustSeq(t *testing.T, id, residues string) Sequence {
	t.Helper()
	s, err := NewSequence(DNA, id, "", residues)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
