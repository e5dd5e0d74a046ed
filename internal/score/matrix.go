// Package score provides substitution matrices, gap models and the
// alignment-score statistics (Karlin–Altschul) needed to convert between
// BLAST-style E-values and the minScore threshold that drives OASIS
// (Equations 2 and 3 of the paper).
package score

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/seq"
)

// NegInf is the sentinel used for "pruned / impossible" alignment scores.
// It is large enough in magnitude to dominate any real score but far from
// the int32/int overflow boundary so that adding matrix scores to it cannot
// wrap around.
const NegInf = -(1 << 29)

// Matrix is a substitution matrix over a fixed alphabet.  Scores are indexed
// by encoded symbol codes.  Matrices are immutable after construction and
// safe for concurrent use.
type Matrix struct {
	name     string
	alphabet *seq.Alphabet
	n        int
	values   []int // n*n, row-major
	rowMax   []int // max over each row
	maxScore int   // max over the whole matrix
	minScore int   // min over the whole matrix

	// ka memoises Params(m, nil): the matrix is immutable, so its statistics
	// under the standard background frequencies are solved once.
	kaOnce sync.Once
	ka     KarlinAltschul
	kaErr  error
}

// NewMatrix builds a matrix from a letter-keyed score table.  Every pair of
// letters present in the alphabet must be covered either by table[a][b] or by
// table[b][a] (symmetry is assumed when only one direction is present);
// missing pairs default to the provided defaultScore.
func NewMatrix(name string, a *seq.Alphabet, table map[byte]map[byte]int, defaultScore int) (*Matrix, error) {
	if a == nil {
		return nil, fmt.Errorf("score: nil alphabet")
	}
	n := a.Size()
	m := &Matrix{
		name:     name,
		alphabet: a,
		n:        n,
		values:   make([]int, n*n),
		rowMax:   make([]int, n),
	}
	letters := a.Letters()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v, ok := lookupPair(table, letters[i], letters[j])
			if !ok {
				v = defaultScore
			}
			m.values[i*n+j] = v
		}
	}
	m.finish()
	return m, nil
}

// NewMatrixFromValues builds a matrix directly from a code-indexed score
// slice of length Size*Size (row-major).
func NewMatrixFromValues(name string, a *seq.Alphabet, values []int) (*Matrix, error) {
	n := a.Size()
	if len(values) != n*n {
		return nil, fmt.Errorf("score: matrix %q has %d values, want %d", name, len(values), n*n)
	}
	m := &Matrix{name: name, alphabet: a, n: n, values: append([]int(nil), values...), rowMax: make([]int, n)}
	m.finish()
	return m, nil
}

func (m *Matrix) finish() {
	m.maxScore = m.values[0]
	m.minScore = m.values[0]
	for i := 0; i < m.n; i++ {
		best := m.values[i*m.n]
		for j := 0; j < m.n; j++ {
			v := m.values[i*m.n+j]
			if v > best {
				best = v
			}
			if v > m.maxScore {
				m.maxScore = v
			}
			if v < m.minScore {
				m.minScore = v
			}
		}
		m.rowMax[i] = best
	}
}

func lookupPair(table map[byte]map[byte]int, a, b byte) (int, bool) {
	if row, ok := table[a]; ok {
		if v, ok := row[b]; ok {
			return v, true
		}
	}
	if row, ok := table[b]; ok {
		if v, ok := row[a]; ok {
			return v, true
		}
	}
	return 0, false
}

// Name returns the matrix name (e.g. "BLOSUM62").
func (m *Matrix) Name() string { return m.name }

// Alphabet returns the alphabet the matrix is defined over.
func (m *Matrix) Alphabet() *seq.Alphabet { return m.alphabet }

// Score returns the substitution score for two encoded symbols.  Scoring
// against a terminator returns NegInf (alignments never cross sequence
// boundaries).
func (m *Matrix) Score(a, b byte) int {
	if int(a) >= m.n || int(b) >= m.n {
		return NegInf
	}
	return m.values[int(a)*m.n+int(b)]
}

// ScoreLetters returns the substitution score for two residue characters.
func (m *Matrix) ScoreLetters(a, b byte) int {
	ca, _ := m.alphabet.Code(a)
	cb, _ := m.alphabet.Code(b)
	return m.Score(ca, cb)
}

// RowMax returns the maximum score achievable by substituting symbol a with
// any symbol; used to build the OASIS heuristic vector.
func (m *Matrix) RowMax(a byte) int {
	if int(a) >= m.n {
		return NegInf
	}
	return m.rowMax[a]
}

// MaxScore returns the largest entry of the matrix.
func (m *Matrix) MaxScore() int { return m.maxScore }

// MinScore returns the smallest entry of the matrix.
func (m *Matrix) MinScore() int { return m.minScore }

// Size returns the alphabet size n; the matrix is n x n.
func (m *Matrix) Size() int { return m.n }

// IsSymmetric reports whether the matrix is symmetric; all built-in matrices
// are.
func (m *Matrix) IsSymmetric() bool {
	for i := 0; i < m.n; i++ {
		for j := i + 1; j < m.n; j++ {
			if m.values[i*m.n+j] != m.values[j*m.n+i] {
				return false
			}
		}
	}
	return true
}

// ExpectedScore returns the expected pairwise score under the residue
// frequency vector p (indexed by symbol code).  A usable local-alignment
// matrix must have a negative expected score.
func (m *Matrix) ExpectedScore(p []float64) float64 {
	var e float64
	for i := 0; i < m.n && i < len(p); i++ {
		for j := 0; j < m.n && j < len(p); j++ {
			e += p[i] * p[j] * float64(m.values[i*m.n+j])
		}
	}
	return e
}

// String renders the matrix in NCBI text format.
func (m *Matrix) String() string {
	var sb strings.Builder
	letters := m.alphabet.Letters()
	fmt.Fprintf(&sb, "# %s\n ", m.name)
	for _, c := range letters {
		fmt.Fprintf(&sb, " %3c", c)
	}
	sb.WriteByte('\n')
	for i, c := range letters {
		fmt.Fprintf(&sb, "%c", c)
		for j := range letters {
			fmt.Fprintf(&sb, " %3d", m.values[i*m.n+j])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
