package score

import (
	"testing"
	"testing/quick"

	"repro/internal/seq"
)

func TestBLOSUM62WellKnownValues(t *testing.T) {
	m := BLOSUM62()
	cases := []struct {
		a, b byte
		want int
	}{
		{'A', 'A', 4}, {'W', 'W', 11}, {'C', 'C', 9},
		{'A', 'R', -1}, {'R', 'A', -1},
		{'W', 'G', -2}, {'I', 'L', 2}, {'E', 'Q', 2},
		{'D', 'E', 2}, {'K', 'R', 2}, {'F', 'Y', 3},
		{'P', 'W', -4}, {'X', 'X', -1},
	}
	for _, c := range cases {
		if got := m.ScoreLetters(c.a, c.b); got != c.want {
			t.Errorf("BLOSUM62(%c,%c) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestBuiltinMatricesSymmetric(t *testing.T) {
	for _, m := range []*Matrix{BLOSUM62(), PAM30(), PAM70(), PAM250(), UnitDNA(), UnitProtein(), BLASTDNA()} {
		if !m.IsSymmetric() {
			t.Errorf("matrix %s is not symmetric", m.Name())
		}
		if m.MaxScore() <= 0 {
			t.Errorf("matrix %s has no positive score", m.Name())
		}
		if m.MinScore() >= 0 {
			t.Errorf("matrix %s has no negative score", m.Name())
		}
	}
}

func TestBuiltinMatricesNegativeExpectation(t *testing.T) {
	for _, m := range []*Matrix{BLOSUM62(), PAM30(), PAM70(), PAM250()} {
		p := DefaultFrequencies(m)
		if e := m.ExpectedScore(p); e >= 0 {
			t.Errorf("matrix %s expected score %v >= 0", m.Name(), e)
		}
	}
	if e := UnitDNA().ExpectedScore(DefaultFrequencies(UnitDNA())); e >= 0 {
		t.Errorf("unit DNA expected score %v >= 0", e)
	}
}

func TestUnitDNAMatchesPaperTable1(t *testing.T) {
	m := UnitDNA()
	for _, a := range []byte{'A', 'C', 'G', 'T'} {
		for _, b := range []byte{'A', 'C', 'G', 'T'} {
			want := -1
			if a == b {
				want = 1
			}
			if got := m.ScoreLetters(a, b); got != want {
				t.Errorf("unit(%c,%c) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestMatrixTerminatorScoring(t *testing.T) {
	m := BLOSUM62()
	if m.Score(seq.Terminator, 0) != NegInf || m.Score(0, seq.Terminator) != NegInf {
		t.Fatal("terminator must score NegInf")
	}
	if m.RowMax(seq.Terminator) != NegInf {
		t.Fatal("terminator row max must be NegInf")
	}
}

func TestMatrixRowMax(t *testing.T) {
	m := BLOSUM62()
	codeW, _ := seq.Protein.Code('W')
	if m.RowMax(codeW) != 11 {
		t.Fatalf("RowMax(W) = %d, want 11", m.RowMax(codeW))
	}
	codeA, _ := seq.Protein.Code('A')
	if m.RowMax(codeA) != 4 {
		t.Fatalf("RowMax(A) = %d, want 4", m.RowMax(codeA))
	}
}

func TestMatrixRowMaxProperty(t *testing.T) {
	m := PAM30()
	f := func(code uint8) bool {
		c := byte(code) % byte(m.Size())
		best := NegInf
		for j := 0; j < m.Size(); j++ {
			if s := m.Score(c, byte(j)); s > best {
				best = s
			}
		}
		return m.RowMax(c) == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestByName(t *testing.T) {
	if ByName("blosum62") != BLOSUM62() {
		t.Fatal("ByName(blosum62) failed")
	}
	if ByName("PAM30") != PAM30() {
		t.Fatal("ByName(PAM30) failed")
	}
	if ByName("nosuch") != nil {
		t.Fatal("ByName(nosuch) should be nil")
	}
}

func TestNewMatrixFromTable(t *testing.T) {
	table := map[byte]map[byte]int{
		'A': {'A': 5, 'C': -2},
		'C': {'C': 5},
	}
	m, err := NewMatrix("mini", seq.DNA, table, -3)
	if err != nil {
		t.Fatal(err)
	}
	if m.ScoreLetters('A', 'A') != 5 || m.ScoreLetters('C', 'A') != -2 {
		t.Fatal("table lookup (with symmetry) failed")
	}
	if m.ScoreLetters('G', 'T') != -3 {
		t.Fatal("default score not applied")
	}
	if _, err := NewMatrix("nil", nil, table, 0); err == nil {
		t.Fatal("expected error for nil alphabet")
	}
}

func TestNewMatrixFromValuesSizeCheck(t *testing.T) {
	if _, err := NewMatrixFromValues("bad", seq.DNA, []int{1, 2, 3}); err == nil {
		t.Fatal("expected size error")
	}
}

func TestMatchMismatchUnknownNeverMatches(t *testing.T) {
	m := MatchMismatch("test", seq.DNA, 3, -2)
	if m.ScoreLetters('N', 'N') != -2 {
		t.Fatalf("N-N should score mismatch, got %d", m.ScoreLetters('N', 'N'))
	}
	if m.ScoreLetters('A', 'A') != 3 {
		t.Fatal("A-A should score match")
	}
}
