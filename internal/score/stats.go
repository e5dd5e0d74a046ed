package score

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/seq"
)

// KarlinAltschul holds the statistical parameters relating local-alignment
// scores to expectation values (E-values).  The paper's Equation 2 is
//
//	E = K * m * n * exp(-lambda * S)
//
// where m is the query length, n the database size, and S the alignment
// score; Equation 3 inverts it to obtain the minScore threshold OASIS uses.
type KarlinAltschul struct {
	Lambda float64
	K      float64
	// H is the relative entropy of the scoring system (bits of information
	// per aligned pair); reported for diagnostics.
	H float64
}

// DefaultFrequencies returns the background residue frequencies used when a
// caller does not supply database-specific frequencies: the Robinson &
// Robinson amino-acid frequencies for protein alphabets and uniform
// frequencies for nucleotide alphabets.  The slice is indexed by symbol code
// and sums to 1.
func DefaultFrequencies(m *Matrix) []float64 {
	n := m.Size()
	p := make([]float64, n)
	if m.Alphabet().Kind() == seq.KindProtein {
		// Robinson & Robinson 1991 frequencies in ARNDCQEGHILKMFPSTWYV
		// order; B, Z, X receive a tiny residual mass.
		rr := []float64{
			0.07805, 0.05129, 0.04487, 0.05364, 0.01925,
			0.04264, 0.06295, 0.07377, 0.02199, 0.05142,
			0.09019, 0.05744, 0.02243, 0.03856, 0.05203,
			0.07120, 0.05841, 0.01330, 0.03216, 0.06441,
		}
		var sum float64
		for i := 0; i < n; i++ {
			if i < len(rr) {
				p[i] = rr[i]
			} else {
				p[i] = 1e-4
			}
			sum += p[i]
		}
		for i := range p {
			p[i] /= sum
		}
		return p
	}
	for i := range p {
		p[i] = 1 / float64(n)
	}
	return p
}

// NormalizeFrequencies rescales freqs so they sum to one, substituting the
// default distribution when the input is empty or degenerate.
func NormalizeFrequencies(m *Matrix, freqs []float64) []float64 {
	if len(freqs) < m.Size() {
		return DefaultFrequencies(m)
	}
	out := make([]float64, m.Size())
	var sum float64
	for i := range out {
		f := freqs[i]
		if f < 0 {
			f = 0
		}
		out[i] = f
		sum += f
	}
	if sum <= 0 {
		return DefaultFrequencies(m)
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// Lambda solves sum_ij p_i p_j exp(lambda*s_ij) = 1 for lambda > 0 by
// bisection.  It returns an error when the scoring system is invalid for
// local alignment (non-negative expected score or no positive score).
func Lambda(m *Matrix, freqs []float64) (float64, error) {
	p := NormalizeFrequencies(m, freqs)
	if m.ExpectedScore(p) >= 0 {
		return 0, fmt.Errorf("score: matrix %q has non-negative expected score; Karlin-Altschul statistics undefined", m.Name())
	}
	if m.MaxScore() <= 0 {
		return 0, fmt.Errorf("score: matrix %q has no positive score", m.Name())
	}
	f := func(lambda float64) float64 {
		var s float64
		for i := 0; i < m.Size(); i++ {
			if p[i] == 0 {
				continue
			}
			for j := 0; j < m.Size(); j++ {
				if p[j] == 0 {
					continue
				}
				s += p[i] * p[j] * math.Exp(lambda*float64(m.Score(byte(i), byte(j))))
			}
		}
		return s - 1
	}
	// f(0) = 0; f'(0) = expected score < 0, so f dips below zero and rises
	// back through zero at the unique positive root.  Find an upper bracket.
	hi := 0.5
	for f(hi) < 0 {
		hi *= 2
		if hi > 1e3 {
			return 0, fmt.Errorf("score: failed to bracket lambda for matrix %q", m.Name())
		}
	}
	lo := 1e-9
	for f(lo) > 0 {
		lo /= 2
		if lo < 1e-300 {
			return 0, fmt.Errorf("score: failed to bracket lambda (lower) for matrix %q", m.Name())
		}
	}
	for iter := 0; iter < 200; iter++ {
		mid := (lo + hi) / 2
		if f(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// Entropy returns the relative entropy H of the scoring system in nats per
// aligned pair, given lambda.
func Entropy(m *Matrix, freqs []float64, lambda float64) float64 {
	p := NormalizeFrequencies(m, freqs)
	var h float64
	for i := 0; i < m.Size(); i++ {
		for j := 0; j < m.Size(); j++ {
			s := float64(m.Score(byte(i), byte(j)))
			h += lambda * s * p[i] * p[j] * math.Exp(lambda*s)
		}
	}
	return h
}

// Params computes the Karlin-Altschul parameters for a matrix and background
// frequencies.  Lambda and H are computed exactly; K uses the standard
// high-scoring-segment approximation K ~= C * exp(-2*sigma) where the
// correction is estimated from the score distribution — adequate for
// converting between E-values and score thresholds, which is all the paper
// (and this reproduction) needs.  CalibrateGumbel provides an empirical
// alternative.
//
// With nil freqs (the standard background frequencies) the numeric solve runs
// once per matrix and is memoised: every query that states its threshold as
// an E-value asks for these same parameters.
func Params(m *Matrix, freqs []float64) (KarlinAltschul, error) {
	if freqs != nil {
		return solveParams(m, freqs)
	}
	m.kaOnce.Do(func() { m.ka, m.kaErr = solveParams(m, nil) })
	return m.ka, m.kaErr
}

func solveParams(m *Matrix, freqs []float64) (KarlinAltschul, error) {
	lambda, err := Lambda(m, freqs)
	if err != nil {
		return KarlinAltschul{}, err
	}
	h := Entropy(m, freqs, lambda)
	// Approximation for K (Karlin & Altschul 1990, eq. 5 simplified):
	// K ≈ H / lambda * exp(-lambda * delta) where delta is the mean step of
	// the associated random walk conditioned on positive excursions.  We
	// use the widely quoted practical approximation K ≈ 0.7 * H / lambda *
	// exp(-lambda), clamped into the empirically observed [0.01, 0.5] range
	// for standard matrices.
	k := 0.7 * h / lambda * math.Exp(-lambda)
	if k < 0.01 {
		k = 0.01
	}
	if k > 0.5 {
		k = 0.5
	}
	return KarlinAltschul{Lambda: lambda, K: k, H: h}, nil
}

// EValue converts an alignment score into the expected number of chance
// alignments with an equal or better score (paper Equation 2).
func (ka KarlinAltschul) EValue(s int, queryLen int, dbLen int64) float64 {
	return ka.K * float64(queryLen) * float64(dbLen) * math.Exp(-ka.Lambda*float64(s))
}

// MinScore converts an E-value threshold into the minimum raw alignment
// score, rounding up (paper Equation 3).  The result is never below 1.
func (ka KarlinAltschul) MinScore(eValue float64, queryLen int, dbLen int64) int {
	if eValue <= 0 {
		eValue = math.SmallestNonzeroFloat64
	}
	s := math.Log(ka.K*float64(queryLen)*float64(dbLen)/eValue) / ka.Lambda
	ms := int(math.Ceil(s))
	if ms < 1 {
		ms = 1
	}
	return ms
}

// CalibrateGumbel estimates lambda and K empirically by aligning random
// sequence pairs and fitting the extreme-value (Gumbel) distribution of
// maximal segment scores by the method of moments.  It provides an
// independent check of Params; scoreFn must return the optimal local
// alignment score of two random sequences of the given lengths.
func CalibrateGumbel(m *Matrix, freqs []float64, seqLen, trials int, rng *rand.Rand,
	scoreFn func(a, b []byte) int) (KarlinAltschul, error) {
	if trials < 8 {
		return KarlinAltschul{}, fmt.Errorf("score: need at least 8 calibration trials, got %d", trials)
	}
	p := NormalizeFrequencies(m, freqs)
	cdf := make([]float64, len(p))
	var acc float64
	for i, f := range p {
		acc += f
		cdf[i] = acc
	}
	sample := func(n int) []byte {
		out := make([]byte, n)
		for i := range out {
			u := rng.Float64()
			j := sort.SearchFloat64s(cdf, u)
			if j >= len(cdf) {
				j = len(cdf) - 1
			}
			out[i] = byte(j)
		}
		return out
	}
	scores := make([]float64, trials)
	for t := 0; t < trials; t++ {
		a := sample(seqLen)
		b := sample(seqLen)
		scores[t] = float64(scoreFn(a, b))
	}
	var mean, sd float64
	for _, s := range scores {
		mean += s
	}
	mean /= float64(trials)
	for _, s := range scores {
		sd += (s - mean) * (s - mean)
	}
	sd = math.Sqrt(sd / float64(trials))
	if sd <= 0 {
		return KarlinAltschul{}, fmt.Errorf("score: degenerate calibration sample (all scores equal)")
	}
	// Gumbel method of moments: sd = pi/(lambda*sqrt(6)),
	// mean = mu + gamma/lambda, P(S>x) ~ K*m*n*exp(-lambda x) gives
	// mu = ln(K*m*n)/lambda.
	const gamma = 0.5772156649015329
	lambda := math.Pi / (sd * math.Sqrt(6))
	mu := mean - gamma/lambda
	k := math.Exp(lambda*mu) / (float64(seqLen) * float64(seqLen))
	h := Entropy(m, p, lambda)
	return KarlinAltschul{Lambda: lambda, K: k, H: h}, nil
}
