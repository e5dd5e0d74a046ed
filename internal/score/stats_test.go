package score

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/seq"
)

func TestLambdaBLOSUM62(t *testing.T) {
	lambda, err := Lambda(BLOSUM62(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// The published ungapped lambda for BLOSUM62 with standard background
	// frequencies is ~0.318 (in units of 1/score); allow a generous band
	// since our B/Z/X handling differs slightly from NCBI's.
	if lambda < 0.25 || lambda > 0.40 {
		t.Fatalf("lambda(BLOSUM62) = %v, want ~0.32", lambda)
	}
}

func TestLambdaSatisfiesDefiningEquation(t *testing.T) {
	for _, m := range []*Matrix{BLOSUM62(), PAM30(), UnitDNA()} {
		p := DefaultFrequencies(m)
		lambda, err := Lambda(m, p)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		var sum float64
		for i := 0; i < m.Size(); i++ {
			for j := 0; j < m.Size(); j++ {
				sum += p[i] * p[j] * math.Exp(lambda*float64(m.Score(byte(i), byte(j))))
			}
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Errorf("%s: defining equation residual %v", m.Name(), sum-1)
		}
	}
}

func TestLambdaUnitDNAClosedForm(t *testing.T) {
	// For the +1/-1 unit matrix with uniform frequencies over k effective
	// letters, lambda solves q*e^l + (1-q)*e^-l = 1 with q = match prob.
	m := UnitDNA()
	p := DefaultFrequencies(m)
	lambda, err := Lambda(m, p)
	if err != nil {
		t.Fatal(err)
	}
	var q float64
	for i := 0; i < m.Size(); i++ {
		for j := 0; j < m.Size(); j++ {
			if m.Score(byte(i), byte(j)) == 1 {
				q += p[i] * p[j]
			}
		}
	}
	want := math.Log((1 - q) / q)
	if math.Abs(lambda-want) > 1e-6 {
		t.Fatalf("lambda = %v, closed form = %v", lambda, want)
	}
}

func TestLambdaErrorsOnInvalidScoring(t *testing.T) {
	// All-positive matrix: expected score >= 0, lambda undefined.
	m := MatchMismatch("allpos", seq.DNA, 2, 1)
	if _, err := Lambda(m, nil); err == nil {
		t.Fatal("expected error for non-negative expected score")
	}
}

func TestParamsAndEValueRoundTrip(t *testing.T) {
	ka, err := Params(PAM30(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ka.Lambda <= 0 || ka.K <= 0 || ka.H <= 0 {
		t.Fatalf("invalid params: %+v", ka)
	}
	const (
		qLen  = 16
		dbLen = int64(40_000_000)
	)
	for _, e := range []float64{1, 10, 1000, 20000} {
		s := ka.MinScore(e, qLen, dbLen)
		if s < 1 {
			t.Fatalf("MinScore(%v) = %d", e, s)
		}
		// The E-value of the returned score must be at most the requested
		// E-value (MinScore rounds up), and the score one lower must exceed it.
		if got := ka.EValue(s, qLen, dbLen); got > e*1.0000001 {
			t.Errorf("EValue(MinScore(%v)) = %v > %v", e, got, e)
		}
		if s > 1 {
			if got := ka.EValue(s-1, qLen, dbLen); got < e {
				t.Errorf("EValue(MinScore(%v)-1) = %v < %v; MinScore not tight", e, got, e)
			}
		}
	}
}

func TestMinScoreMonotonicInE(t *testing.T) {
	ka, err := Params(BLOSUM62(), nil)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.MaxInt32
	for _, e := range []float64{0.001, 0.1, 1, 10, 100, 10000} {
		s := ka.MinScore(e, 20, 1_000_000)
		if s > prev {
			t.Fatalf("MinScore not monotonically non-increasing in E: %d after %d", s, prev)
		}
		prev = s
	}
	// Zero and negative E-values are clamped rather than exploding.
	if s := ka.MinScore(0, 20, 1_000_000); s <= 0 {
		t.Fatal("MinScore(0) must be positive")
	}
}

func TestNormalizeFrequencies(t *testing.T) {
	m := UnitDNA()
	got := NormalizeFrequencies(m, []float64{2, 2, 2, 2, 0})
	var sum float64
	for _, f := range got {
		sum += f
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("normalized frequencies sum to %v", sum)
	}
	if got[0] != 0.25 {
		t.Fatalf("freq[0] = %v", got[0])
	}
	// Degenerate input falls back to defaults.
	fall := NormalizeFrequencies(m, []float64{0, 0, 0, 0, 0})
	if fall[0] <= 0 {
		t.Fatal("fallback frequencies must be positive")
	}
	short := NormalizeFrequencies(m, []float64{1})
	if len(short) != m.Size() {
		t.Fatal("short input must fall back to defaults")
	}
}

func TestDefaultFrequenciesSumToOne(t *testing.T) {
	for _, m := range []*Matrix{BLOSUM62(), UnitDNA()} {
		p := DefaultFrequencies(m)
		var sum float64
		for _, f := range p {
			sum += f
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s default frequencies sum to %v", m.Name(), sum)
		}
	}
}

func TestCalibrateGumbel(t *testing.T) {
	// Use a trivial quadratic-time S-W on small random sequences; the
	// calibrated lambda should be positive and within a factor ~2 of the
	// analytic value.
	m := UnitDNA()
	gap := -2
	swScore := func(a, b []byte) int {
		prev := make([]int, len(b)+1)
		cur := make([]int, len(b)+1)
		best := 0
		for i := 1; i <= len(a); i++ {
			for j := 1; j <= len(b); j++ {
				s := prev[j-1] + m.Score(a[i-1], b[j-1])
				if v := prev[j] + gap; v > s {
					s = v
				}
				if v := cur[j-1] + gap; v > s {
					s = v
				}
				if s < 0 {
					s = 0
				}
				cur[j] = s
				if s > best {
					best = s
				}
			}
			prev, cur = cur, prev
		}
		return best
	}
	rng := rand.New(rand.NewSource(42))
	ka, err := CalibrateGumbel(m, nil, 120, 40, rng, swScore)
	if err != nil {
		t.Fatal(err)
	}
	if ka.Lambda <= 0 || ka.K <= 0 {
		t.Fatalf("calibration produced invalid params: %+v", ka)
	}
	analytic, _ := Lambda(m, nil)
	if ka.Lambda < analytic/4 || ka.Lambda > analytic*4 {
		t.Fatalf("calibrated lambda %v too far from analytic %v", ka.Lambda, analytic)
	}
	if _, err := CalibrateGumbel(m, nil, 10, 2, rng, swScore); err == nil {
		t.Fatal("expected error for too few trials")
	}
}

func TestSchemeValidation(t *testing.T) {
	if _, err := NewScheme(BLOSUM62(), -8); err != nil {
		t.Fatal(err)
	}
	if _, err := NewScheme(nil, -8); err == nil {
		t.Fatal("expected error for nil matrix")
	}
	if _, err := NewScheme(BLOSUM62(), 0); err == nil {
		t.Fatal("expected error for non-negative gap")
	}
	if _, err := NewScheme(BLOSUM62(), 3); err == nil {
		t.Fatal("expected error for positive gap")
	}
	s := MustScheme(UnitDNA(), -1)
	if s.GapCost(4) != -4 {
		t.Fatalf("GapCost(4) = %d", s.GapCost(4))
	}
}
