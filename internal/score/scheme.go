package score

import "fmt"

// Scheme bundles a substitution matrix with the fixed (linear) gap penalty
// model used throughout the paper: a run of k insertions or deletions
// contributes k*Gap to the alignment score, with Gap < 0.
//
// The paper notes that its OASIS and S-W implementations do not support
// affine gaps; neither do the aligners in this repository.
type Scheme struct {
	Matrix *Matrix
	// Gap is the per-symbol insertion/deletion penalty (must be negative).
	Gap int
}

// NewScheme validates and returns a scoring scheme.
func NewScheme(m *Matrix, gap int) (Scheme, error) {
	s := Scheme{Matrix: m, Gap: gap}
	return s, s.Validate()
}

// MustScheme is NewScheme that panics on error; intended for tests and
// examples.
func MustScheme(m *Matrix, gap int) Scheme {
	s, err := NewScheme(m, gap)
	if err != nil {
		panic(err)
	}
	return s
}

// Validate checks that the scheme is usable for local alignment: a matrix
// must be present, the gap penalty must be negative, and the matrix must
// contain at least one positive score (otherwise no local alignment can ever
// score above zero).
func (s Scheme) Validate() error {
	if s.Matrix == nil {
		return fmt.Errorf("score: scheme has no matrix")
	}
	if s.Gap >= 0 {
		return fmt.Errorf("score: gap penalty %d must be negative", s.Gap)
	}
	if s.Matrix.MaxScore() <= 0 {
		return fmt.Errorf("score: matrix %q has no positive scores", s.Matrix.Name())
	}
	return nil
}

// GapCost returns the penalty of a gap of length k (k >= 0).
func (s Scheme) GapCost(k int) int { return k * s.Gap }
