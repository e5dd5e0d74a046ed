package align

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/score"
	"repro/internal/seq"
)

var unitScheme = score.MustScheme(score.UnitDNA(), -1)

func TestScorePaperExample(t *testing.T) {
	// Paper Section 2.2: query TACG against target AGTACGCCTAG with the
	// unit matrix gives a maximum alignment score of 4 (TACG = TACG).
	q := seq.DNA.MustEncode("TACG")
	tgt := seq.DNA.MustEncode("AGTACGCCTAG")
	if got := Score(q, tgt, unitScheme, nil); got != 4 {
		t.Fatalf("paper example score = %d, want 4", got)
	}
}

func TestAlignPaperExample(t *testing.T) {
	q := seq.DNA.MustEncode("TACG")
	tgt := seq.DNA.MustEncode("AGTACGCCTAG")
	a, err := Align(q, tgt, unitScheme)
	if err != nil {
		t.Fatal(err)
	}
	if a.Score != 4 {
		t.Fatalf("score = %d, want 4", a.Score)
	}
	if a.QueryStart != 0 || a.QueryEnd != 4 || a.TargetStart != 2 || a.TargetEnd != 6 {
		t.Fatalf("coordinates = %+v", a.Hit)
	}
	if a.CIGAR() != "4M" {
		t.Fatalf("CIGAR = %q, want 4M", a.CIGAR())
	}
	if a.Identity() != 1.0 {
		t.Fatalf("identity = %v", a.Identity())
	}
	if err := a.Validate(len(q), len(tgt)); err != nil {
		t.Fatal(err)
	}
}

func TestScoreEmptyInputs(t *testing.T) {
	q := seq.DNA.MustEncode("ACGT")
	if Score(nil, q, unitScheme, nil) != 0 || Score(q, nil, unitScheme, nil) != 0 {
		t.Fatal("empty inputs must score 0")
	}
	a, err := Align(nil, q, unitScheme)
	if err != nil || a.Score != 0 {
		t.Fatal("empty alignment must be zero")
	}
}

func TestScoreNoPositiveAlignment(t *testing.T) {
	q := seq.DNA.MustEncode("AAAA")
	tgt := seq.DNA.MustEncode("CCCC")
	if got := Score(q, tgt, unitScheme, nil); got != 0 {
		t.Fatalf("score = %d, want 0", got)
	}
	a, err := Align(q, tgt, unitScheme)
	if err != nil {
		t.Fatal(err)
	}
	if a.Score != 0 || len(a.Ops) != 0 {
		t.Fatalf("expected empty alignment, got %+v", a)
	}
}

func TestAlignWithGaps(t *testing.T) {
	// The target carries an extra C in the middle of an otherwise exact
	// match, so the optimal alignment must open a deletion gap.
	q := seq.DNA.MustEncode("AAAATTTT")
	tgt := seq.DNA.MustEncode("AAAACTTTT")
	a, err := Align(q, tgt, unitScheme)
	if err != nil {
		t.Fatal(err)
	}
	if a.Score != 7 { // 8 matches - 1 gap
		t.Fatalf("score = %d, want 7", a.Score)
	}
	if !strings.Contains(a.CIGAR(), "D") {
		t.Fatalf("expected a deletion in %q", a.CIGAR())
	}
	if err := a.Validate(len(q), len(tgt)); err != nil {
		t.Fatal(err)
	}
	if got := RescoreOps(a, q, tgt, unitScheme.Matrix, unitScheme.Gap); got != a.Score {
		t.Fatalf("rescore = %d, want %d", got, a.Score)
	}
}

func TestAlignInsertion(t *testing.T) {
	// Query has an extra residue relative to the target, forcing an
	// insertion gap in the optimal alignment.
	q := seq.DNA.MustEncode("AAAACTTTT")
	tgt := seq.DNA.MustEncode("AAAATTTT")
	a, err := Align(q, tgt, unitScheme)
	if err != nil {
		t.Fatal(err)
	}
	if a.Score != 7 {
		t.Fatalf("score = %d, want 7", a.Score)
	}
	if !strings.Contains(a.CIGAR(), "I") {
		t.Fatalf("expected an insertion in %q", a.CIGAR())
	}
}

func TestAlignScoreAgreesWithScore(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sch := score.MustScheme(score.BLOSUM62(), -6)
	for trial := 0; trial < 50; trial++ {
		q := randomProtein(rng, 5+rng.Intn(30))
		tgt := randomProtein(rng, 5+rng.Intn(120))
		want := Score(q, tgt, sch, nil)
		a, err := Align(q, tgt, sch)
		if err != nil {
			t.Fatal(err)
		}
		if a.Score != want {
			t.Fatalf("trial %d: Align score %d != Score %d", trial, a.Score, want)
		}
		if a.Score > 0 {
			if err := a.Validate(len(q), len(tgt)); err != nil {
				t.Fatal(err)
			}
			if got := RescoreOps(a, q, tgt, sch.Matrix, sch.Gap); got != a.Score {
				t.Fatalf("trial %d: rescore %d != %d", trial, got, a.Score)
			}
		}
	}
}

func TestScoreSymmetricMatrixProperty(t *testing.T) {
	// With a symmetric matrix, swapping query and target must not change
	// the optimal score.
	f := func(aSeed, bSeed int64) bool {
		rng := rand.New(rand.NewSource(aSeed ^ bSeed<<1))
		q := randomDNA(rng, 1+rng.Intn(20))
		tgt := randomDNA(rng, 1+rng.Intn(40))
		return Score(q, tgt, unitScheme, nil) == Score(tgt, q, unitScheme, nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestScoreSubstringProperty(t *testing.T) {
	// If the query is an exact substring of the target, the score is at
	// least len(query) * min-diagonal-score for the unit matrix (= length).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tgt := randomDNA(rng, 20+rng.Intn(60))
		start := rng.Intn(len(tgt) - 5)
		l := 3 + rng.Intn(len(tgt)-start-3)
		q := tgt[start : start+l]
		return Score(q, tgt, unitScheme, nil) >= l
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestScoreMonotoneInGapPenalty(t *testing.T) {
	// A harsher gap penalty can never increase the optimal score.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		q := randomDNA(rng, 5+rng.Intn(20))
		tgt := randomDNA(rng, 10+rng.Intn(50))
		lenient := Score(q, tgt, score.MustScheme(score.UnitDNA(), -1), nil)
		harsh := Score(q, tgt, score.MustScheme(score.UnitDNA(), -3), nil)
		if harsh > lenient {
			t.Fatalf("harsh gap score %d > lenient %d", harsh, lenient)
		}
	}
}

func TestSearchDatabase(t *testing.T) {
	db, err := seq.DatabaseFromStrings(seq.DNA,
		"AGTACGCCTAG", // contains TACG exactly (score 4)
		"CCCCCCCC",    // no alignment
		"TTTACGTT",    // contains TACG exactly (score 4)
		"TACCG",       // TAC-G with one gap (score 3)
	)
	if err != nil {
		t.Fatal(err)
	}
	q := seq.DNA.MustEncode("TACG")
	var st Stats
	hits, err := SearchDatabase(db, q, unitScheme, Options{MinScore: 3, Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 3 {
		t.Fatalf("got %d hits, want 3: %+v", len(hits), hits)
	}
	if hits[0].Score != 4 || hits[1].Score != 4 || hits[2].Score != 3 {
		t.Fatalf("hit scores wrong: %+v", hits)
	}
	if hits[0].SeqIndex != 0 || hits[1].SeqIndex != 2 || hits[2].SeqIndex != 3 {
		t.Fatalf("hit order wrong: %+v", hits)
	}
	if st.SequencesScanned != 4 {
		t.Fatalf("SequencesScanned = %d", st.SequencesScanned)
	}
	wantCols := int64(11 + 8 + 8 + 5)
	if st.ColumnsExpanded != wantCols {
		t.Fatalf("ColumnsExpanded = %d, want %d", st.ColumnsExpanded, wantCols)
	}
	if st.CellsComputed != wantCols*int64(len(q)) {
		t.Fatalf("CellsComputed = %d", st.CellsComputed)
	}
}

func TestSearchDatabaseMinScoreFilter(t *testing.T) {
	db, _ := seq.DatabaseFromStrings(seq.DNA, "AGTACGCCTAG", "TACCG")
	q := seq.DNA.MustEncode("TACG")
	hits, err := SearchDatabase(db, q, unitScheme, Options{MinScore: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].SeqIndex != 0 {
		t.Fatalf("hits = %+v", hits)
	}
}

func TestSearchDatabaseErrors(t *testing.T) {
	db, _ := seq.DatabaseFromStrings(seq.DNA, "ACGT")
	q := seq.DNA.MustEncode("ACG")
	if _, err := SearchDatabase(db, q, unitScheme, Options{MinScore: 0}); err == nil {
		t.Fatal("expected error for MinScore 0")
	}
	if _, err := SearchDatabase(db, nil, unitScheme, Options{MinScore: 1}); err == nil {
		t.Fatal("expected error for empty query")
	}
	if _, err := SearchDatabase(db, q, score.Scheme{}, Options{MinScore: 1}); err == nil {
		t.Fatal("expected error for invalid scheme")
	}
}

func TestAlignHit(t *testing.T) {
	db, _ := seq.DatabaseFromStrings(seq.DNA, "AGTACGCCTAG")
	q := seq.DNA.MustEncode("TACG")
	hits, err := SearchDatabase(db, q, unitScheme, Options{MinScore: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, err := AlignHit(db, q, unitScheme, hits[0])
	if err != nil {
		t.Fatal(err)
	}
	if a.Score != hits[0].Score || a.SeqID != "seq0" {
		t.Fatalf("AlignHit mismatch: %+v vs %+v", a.Hit, hits[0])
	}
	if _, err := AlignHit(db, q, unitScheme, Hit{SeqIndex: 5}); err == nil {
		t.Fatal("expected range error")
	}
}

func TestAlignmentFormat(t *testing.T) {
	q := seq.DNA.MustEncode("TACG")
	tgt := seq.DNA.MustEncode("AGTACGCCTAG")
	a, _ := Align(q, tgt, unitScheme)
	out := a.Format(seq.DNA, q, tgt)
	if !strings.Contains(out, "TACG") || !strings.Contains(out, "||||") {
		t.Fatalf("format output missing content:\n%s", out)
	}
}

func TestAlignmentValidateRejectsBadOps(t *testing.T) {
	a := Alignment{Hit: Hit{QueryStart: 0, QueryEnd: 2, TargetStart: 0, TargetEnd: 2}, Ops: []Op{OpMatch}}
	if err := a.Validate(4, 4); err == nil {
		t.Fatal("expected span/op mismatch error")
	}
	a = Alignment{Hit: Hit{QueryStart: 2, QueryEnd: 1}}
	if err := a.Validate(4, 4); err == nil {
		t.Fatal("expected bad span error")
	}
	a = Alignment{Hit: Hit{QueryEnd: 1, TargetEnd: 1}, Ops: []Op{'Z'}}
	if err := a.Validate(4, 4); err == nil {
		t.Fatal("expected unknown op error")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{ColumnsExpanded: 1, CellsComputed: 2, SequencesScanned: 3}
	b := Stats{ColumnsExpanded: 10, CellsComputed: 20, SequencesScanned: 30}
	a.Add(b)
	if a.ColumnsExpanded != 11 || a.CellsComputed != 22 || a.SequencesScanned != 33 {
		t.Fatalf("Add wrong: %+v", a)
	}
}

func randomDNA(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rng.Intn(4))
	}
	return out
}

func randomProtein(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rng.Intn(20))
	}
	return out
}
