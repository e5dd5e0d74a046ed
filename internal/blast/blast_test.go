package blast

import (
	"math/rand"
	"testing"

	"repro/internal/align"
	"repro/internal/score"
	"repro/internal/seq"
)

func proteinScheme() score.Scheme { return score.MustScheme(score.BLOSUM62(), -8) }

func randomProtein(rng *rand.Rand, n int) string {
	letters := "ARNDCQEGHILKMFPSTWYV"
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[rng.Intn(20)]
	}
	return string(b)
}

// plantedDB builds a protein database in which some sequences contain a
// (mutated) copy of the motif, so heuristics have something to find.
func plantedDB(t *testing.T, rng *rand.Rand, motif string, nSeq int) *seq.Database {
	t.Helper()
	var strsCase []string
	for i := 0; i < nSeq; i++ {
		s := randomProtein(rng, 60+rng.Intn(60))
		if i%2 == 0 {
			pos := rng.Intn(len(s) - 1)
			s = s[:pos] + motif + s[pos:]
		}
		strsCase = append(strsCase, s)
	}
	db, err := seq.DatabaseFromStrings(seq.Protein, strsCase...)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestBlastFindsPlantedMotif(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	motif := "WWDKDGDGCITTKELW"
	db := plantedDB(t, rng, motif, 12)
	s, err := NewSearcher(db, proteinScheme(), Options{TwoHit: false, EValue: 1000})
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	hits, err := s.Search(seq.Protein.MustEncode(motif), &st)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) < 6 {
		t.Fatalf("expected the 6 planted sequences to be found, got %d hits", len(hits))
	}
	if st.SeedHits == 0 || st.Extensions == 0 || st.GappedExtensions == 0 {
		t.Fatalf("stats not collected: %+v", st)
	}
	// Hits are sorted by decreasing score and each sequence appears once.
	seen := map[int]bool{}
	for i, h := range hits {
		if i > 0 && h.Score > hits[i-1].Score {
			t.Fatal("hits not sorted by score")
		}
		if seen[h.SeqIndex] {
			t.Fatal("duplicate sequence in hit list")
		}
		seen[h.SeqIndex] = true
		if h.EValue < 0 {
			t.Fatal("negative E-value")
		}
	}
}

func TestBlastScoresNeverExceedSmithWaterman(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	motif := "ACDEFGHIKLMNPQRS"
	db := plantedDB(t, rng, motif, 10)
	sch := proteinScheme()
	s, err := NewSearcher(db, sch, Options{TwoHit: false, EValue: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	q := seq.Protein.MustEncode(motif)
	hits, err := s.Search(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("expected hits")
	}
	for _, h := range hits {
		sw := align.Score(q, db.Sequence(h.SeqIndex).Residues, sch, nil)
		if h.Score > sw {
			t.Fatalf("BLAST score %d exceeds S-W optimum %d for sequence %d", h.Score, sw, h.SeqIndex)
		}
	}
}

func TestBlastCanMissWhatSmithWatermanFinds(t *testing.T) {
	// A query whose only similarity to the target is spread thin (no
	// 3-residue word above the neighbourhood threshold after mutation)
	// can be missed by the heuristic while S-W still reports a positive
	// score.  We verify the *capability* of missing by checking that across
	// a workload BLAST never reports more sequences than exact search.
	rng := rand.New(rand.NewSource(3))
	motif := "WCDKDGDGCITTKELW"
	db := plantedDB(t, rng, motif, 20)
	sch := proteinScheme()
	s, err := NewSearcher(db, sch, Options{TwoHit: true, EValue: 20000})
	if err != nil {
		t.Fatal(err)
	}
	q := seq.Protein.MustEncode("CDKDGDGCITTKEL")
	hits, err := s.Search(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	minScore := s.KA().MinScore(20000, len(q), db.TotalResidues())
	exact := 0
	for i := 0; i < db.NumSequences(); i++ {
		if align.Score(q, db.Sequence(i).Residues, sch, nil) >= minScore {
			exact++
		}
	}
	if len(hits) > exact {
		t.Fatalf("heuristic reported %d sequences, exact search bound is %d", len(hits), exact)
	}
}

func TestBlastDNAExactWordSeeding(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	core := "ACGTACGGTTACGATCGG"
	var strsCase []string
	for i := 0; i < 8; i++ {
		s := ""
		for j := 0; j < 5+rng.Intn(10); j++ {
			s += string("ACGT"[rng.Intn(4)])
		}
		if i%2 == 0 {
			s += core
		}
		for j := 0; j < 5+rng.Intn(10); j++ {
			s += string("ACGT"[rng.Intn(4)])
		}
		strsCase = append(strsCase, s)
	}
	db, err := seq.DatabaseFromStrings(seq.DNA, strsCase...)
	if err != nil {
		t.Fatal(err)
	}
	sch := score.MustScheme(score.BLASTDNA(), -5)
	s, err := NewSearcher(db, sch, Options{EValue: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if s.wordSize != 11 {
		t.Fatalf("DNA word size = %d", s.wordSize)
	}
	hits, err := s.Search(seq.DNA.MustEncode(core), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 4 {
		t.Fatalf("expected the 4 planted sequences, got %d", len(hits))
	}
}

func TestTwoHitIsMoreSelectiveThanOneHit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	motif := "DKDGDGCITTKELGTV"
	db := plantedDB(t, rng, motif, 16)
	sch := proteinScheme()
	one, err := NewSearcher(db, sch, Options{TwoHit: false, EValue: 20000})
	if err != nil {
		t.Fatal(err)
	}
	two, err := NewSearcher(db, sch, Options{TwoHit: true, EValue: 20000})
	if err != nil {
		t.Fatal(err)
	}
	q := seq.Protein.MustEncode(motif[:14])
	var stOne, stTwo Stats
	h1, err := one.Search(q, &stOne)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := two.Search(q, &stTwo)
	if err != nil {
		t.Fatal(err)
	}
	if stTwo.Extensions > stOne.Extensions {
		t.Fatalf("two-hit ran more extensions (%d) than one-hit (%d)", stTwo.Extensions, stOne.Extensions)
	}
	if len(h2) > len(h1) {
		t.Fatalf("two-hit found more sequences (%d) than one-hit (%d)", len(h2), len(h1))
	}
}

func TestNeighborhoodEnumeration(t *testing.T) {
	db, _ := seq.DatabaseFromStrings(seq.Protein, "ARNDCQEGHILKMFPSTWYV")
	s, err := NewSearcher(db, proteinScheme(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	qWord := seq.Protein.MustEncode("WWW")
	count := 0
	selfSeen := false
	selfCode, _ := s.encodeWord(qWord)
	s.enumerateNeighborhood(qWord, func(code uint32) {
		count++
		if code == selfCode {
			selfSeen = true
		}
	})
	if !selfSeen {
		t.Fatal("neighbourhood must contain the word itself (WWW scores 33)")
	}
	if count == 0 || count > 23*23*23 {
		t.Fatalf("implausible neighbourhood size %d", count)
	}
}

func TestSearchValidation(t *testing.T) {
	db, _ := seq.DatabaseFromStrings(seq.Protein, "ARNDCQEGHILKMFPSTWYV")
	if _, err := NewSearcher(nil, proteinScheme(), Options{}); err == nil {
		t.Fatal("expected error for nil database")
	}
	if _, err := NewSearcher(db, score.Scheme{}, Options{}); err == nil {
		t.Fatal("expected error for invalid scheme")
	}
	dnaDB, _ := seq.DatabaseFromStrings(seq.DNA, "ACGT")
	if _, err := NewSearcher(dnaDB, proteinScheme(), Options{}); err == nil {
		t.Fatal("expected error for alphabet mismatch")
	}
	s, err := NewSearcher(db, proteinScheme(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Search(nil, nil); err == nil {
		t.Fatal("expected error for empty query")
	}
	if _, err := s.Search([]byte{seq.Terminator}, nil); err == nil {
		t.Fatal("expected error for invalid query symbols")
	}
	// A query shorter than the word size cannot be seeded and returns no
	// hits rather than an error.
	hits, err := s.Search(seq.Protein.MustEncode("AR"), nil)
	if err != nil || hits != nil {
		t.Fatalf("short query: hits=%v err=%v", hits, err)
	}
}

func TestDefaultsApplied(t *testing.T) {
	db, _ := seq.DatabaseFromStrings(seq.Protein, "ARNDCQEGHILKMFPSTWYV")
	s, err := NewSearcher(db, proteinScheme(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.wordSize != 3 || s.opts.EValue != 10 {
		t.Fatalf("protein defaults wrong: word size %d, E-value %g", s.wordSize, s.opts.EValue)
	}
	dnaDB, _ := seq.DatabaseFromStrings(seq.DNA, "ACGTACGTACGTACGT")
	s, err = NewSearcher(dnaDB, score.MustScheme(score.BLASTDNA(), -5), Options{EValue: 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.wordSize != 11 || s.opts.EValue != 5 {
		t.Fatalf("dna defaults wrong: word size %d, E-value %g", s.wordSize, s.opts.EValue)
	}
}

func TestEncodeWordRejectsTerminator(t *testing.T) {
	db, _ := seq.DatabaseFromStrings(seq.Protein, "ARND")
	s, err := NewSearcher(db, proteinScheme(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.encodeWord([]byte{0, seq.Terminator, 1}); ok {
		t.Fatal("terminator-containing word must be rejected")
	}
	if _, ok := s.encodeWord([]byte{0, 1, 2}); !ok {
		t.Fatal("valid word rejected")
	}
}
