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

// TestPrefixPartitionCoversSuffixesDisjointly is the prefix partitioner's
// core property: every residue-starting suffix of the database maps to
// exactly one shard through Owner (coverage and disjointness both follow
// from Owner being a total function over the suffixes), and the per-shard
// loads account for every suffix exactly once.
func TestPrefixPartitionCoversSuffixesDisjointly(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	alphabets := []*Alphabet{DNA, Protein}
	for trial := 0; trial < 30; trial++ {
		a := alphabets[trial%len(alphabets)]
		letters := a.Letters()
		strs := make([]string, 1+rng.Intn(30))
		for i := range strs {
			var b strings.Builder
			l := 1 + rng.Intn(100)
			for j := 0; j < l; j++ {
				b.WriteByte(letters[rng.Intn(len(letters))])
			}
			strs[i] = b.String()
		}
		db, err := DatabaseFromStrings(a, strs...)
		if err != nil {
			t.Fatal(err)
		}
		nShards := 1 + rng.Intn(8)
		p, err := PartitionByPrefix(db, nShards)
		if err != nil {
			t.Fatal(err)
		}
		if p.NumShards() != nShards {
			t.Fatalf("trial %d: %d shards, want %d", trial, p.NumShards(), nShards)
		}
		tally := make([]int64, nShards)
		concat := db.Concat()
		var covered int64
		for pos := 0; pos < len(concat); pos++ {
			if concat[pos] == Terminator {
				continue
			}
			s := p.Owner(concat[pos], concat[pos+1])
			if s < 0 || s >= nShards {
				t.Fatalf("trial %d: suffix at %d assigned to invalid shard %d", trial, pos, s)
			}
			tally[s]++
			covered++
		}
		if covered != db.TotalResidues() {
			t.Fatalf("trial %d: covered %d suffixes, database has %d", trial, covered, db.TotalResidues())
		}
		var loadSum int64
		for s := range tally {
			if tally[s] != p.Load[s] {
				t.Fatalf("trial %d shard %d: Owner routes %d suffixes, Load records %d",
					trial, s, tally[s], p.Load[s])
			}
			loadSum += p.Load[s]
		}
		if loadSum != db.TotalResidues() {
			t.Fatalf("trial %d: loads sum to %d, want %d", trial, loadSum, db.TotalResidues())
		}
		// Split groups must route consistently: Split(first) implies every
		// second symbol (including the terminator) has a valid owner.
		for _, f := range letters {
			code, _ := a.Code(f)
			if !p.Split(code) {
				continue
			}
			for _, g := range append(letters, Terminator) {
				second := g
				if g != Terminator {
					second, _ = a.Code(g)
				}
				if s := p.Owner(code, second); s < 0 || s >= nShards {
					t.Fatalf("trial %d: split prefix (%c,%v) has invalid owner %d", trial, f, g, s)
				}
			}
		}
	}
}

// TestPrefixPartitionBalance checks the LPT assignment spreads a large DNA
// database evenly: with only a handful of first symbols the heavy groups
// must be split for 8 shards to get comparable loads.
func TestPrefixPartitionBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	db := randomPartitionDB(t, rng, 150, 400)
	p, err := PartitionByPrefix(db, 8)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumGroups <= 8 {
		t.Fatalf("expected heavy DNA first-symbol groups to split, got %d groups", p.NumGroups)
	}
	var min, max int64
	for s, l := range p.Load {
		if s == 0 || l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	if min == 0 || float64(max)/float64(min) > 2.0 {
		t.Fatalf("unbalanced prefix shards: min=%d max=%d", min, max)
	}
}

// TestPrefixPartitionDeterministicAndDegenerate pins determinism and the
// error cases.
func TestPrefixPartitionDeterministicAndDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	db := randomPartitionDB(t, rng, 40, 80)
	a, err := PartitionByPrefix(db, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PartitionByPrefix(db, 5)
	if err != nil {
		t.Fatal(err)
	}
	concat := db.Concat()
	for pos := 0; pos < len(concat); pos++ {
		if concat[pos] == Terminator {
			continue
		}
		if a.Owner(concat[pos], concat[pos+1]) != b.Owner(concat[pos], concat[pos+1]) {
			t.Fatalf("assignment differs between identical runs at position %d", pos)
		}
	}
	if _, err := PartitionByPrefix(db, 0); err == nil {
		t.Fatal("expected an error for shard count 0")
	}
	if _, err := PartitionByPrefix(nil, 2); err == nil {
		t.Fatal("expected an error for a nil database")
	}
	empty := &Database{alphabet: DNA}
	if _, err := PartitionByPrefix(empty, 2); err == nil {
		t.Fatal("expected an error for an empty database")
	}
	// Terminator-first prefixes route to shard 0 (they can never start an
	// alignment, so the owner is arbitrary but must be valid).
	if s := a.Owner(Terminator, 0); s != 0 {
		t.Fatalf("terminator prefix routed to shard %d, want 0", s)
	}
}

// TestPrefixOwnersDeterministic pins that owners are identical across runs.
func TestPrefixOwnersDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	db := randomPartitionDB(t, rng, 50, 120)
	a, err := PartitionByPrefix(db, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PartitionByPrefix(db, 6)
	if err != nil {
		t.Fatal(err)
	}
	width := db.Alphabet().Size()
	for f := 0; f < width; f++ {
		for s := 0; s <= width; s++ {
			if a.Owner(byte(f), byte(s)) != b.Owner(byte(f), byte(s)) {
				t.Fatalf("Owner(%d,%d) differs between identical runs", f, s)
			}
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
