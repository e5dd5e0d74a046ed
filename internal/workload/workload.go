// Package workload generates the synthetic data sets that stand in for the
// paper's evaluation data (SWISS-PROT proteins, ProClass motif queries and
// the Drosophila nucleotide collection).
//
// Databases are generated from background residue frequencies with planted,
// mutated motif homologies so that query workloads have a realistic hit
// structure: a few strong matches per query, a long tail of weak ones, and
// many sequences with no meaningful alignment at all.  All generation is
// deterministic given the configured seed.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/score"
	"repro/internal/seq"
)

// The shape of the synthetic SWISS-PROT stand-in.  Only the scale and the
// seed of a generated database are configuration; these are the workload.
const (
	// Sequence lengths (SWISS-PROT: 7..2048, mean ~400; the scaled mean is
	// smaller to keep benchmarks fast).
	proteinMinLen, proteinMaxLen, proteinMeanLen = 7, 2048, 256
	// familySize is the number of sequences that receive a (mutated) copy of
	// each family motif.
	familySize = 6
	// Motif lengths (ProClass: 3..80).
	motifMinLen, motifMaxLen = 8, 40
	// Per-residue probabilities that a planted motif copy differs from the
	// family motif by a substitution, or by an insertion or deletion.
	motifMutationRate, motifIndelRate = 0.15, 0.02
)

// ProteinConfig configures the synthetic protein database generator.
type ProteinConfig struct {
	// NumSequences is the number of protein sequences (SWISS-PROT has
	// ~100K; benchmarks use a scaled-down default).
	NumSequences int
	// NumFamilies is the number of motif families planted into the
	// database.
	NumFamilies int
	// Seed makes generation deterministic.
	Seed int64
}

// DefaultProteinConfig returns a laptop-scale stand-in for SWISS-PROT with
// roughly the requested total number of residues.
func DefaultProteinConfig(totalResidues int64) ProteinConfig {
	n := int(totalResidues / proteinMeanLen)
	if n < 10 {
		n = 10
	}
	return ProteinConfig{
		NumSequences: n,
		NumFamilies:  n/20 + 5,
		Seed:         1309,
	}
}

// Motif is a planted family motif and the database sequences that contain a
// mutated copy of it.
type Motif struct {
	// ID names the motif family.
	ID string
	// Residues is the encoded canonical motif.
	Residues []byte
	// Members lists the indexes of the sequences containing a copy.
	Members []int
}

// ProteinDatabase generates a SWISS-PROT-like database plus the list of
// planted motifs.
func ProteinDatabase(cfg ProteinConfig) (*seq.Database, []Motif, error) {
	if cfg.NumSequences <= 0 || cfg.NumFamilies < 0 {
		return nil, nil, fmt.Errorf("workload: invalid protein config %+v", cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	freqs := proteinBackground()
	sampler := newResidueSampler(seq.Protein, freqs)

	// Base sequences.
	seqs := make([]seq.Sequence, cfg.NumSequences)
	for i := range seqs {
		n := sampleLength(rng, proteinMeanLen, proteinMinLen, proteinMaxLen)
		seqs[i] = seq.Sequence{
			ID:          fmt.Sprintf("SYN|P%05d", i),
			Description: "synthetic protein",
			Residues:    sampler.sample(rng, n),
		}
	}

	// Plant motif families.
	motifs := make([]Motif, 0, cfg.NumFamilies)
	for f := 0; f < cfg.NumFamilies; f++ {
		mLen := motifMinLen + rng.Intn(motifMaxLen-motifMinLen+1)
		motif := Motif{
			ID:       fmt.Sprintf("MOTIF%04d", f),
			Residues: sampler.sample(rng, mLen),
		}
		for k := 0; k < familySize; k++ {
			target := rng.Intn(len(seqs))
			copyRes := mutate(rng, sampler, motif.Residues, motifMutationRate, motifIndelRate)
			seqs[target].Residues = insertAt(rng, seqs[target].Residues, copyRes)
			motif.Members = append(motif.Members, target)
		}
		motifs = append(motifs, motif)
	}

	db, err := seq.NewDatabase(seq.Protein, seqs)
	if err != nil {
		return nil, nil, err
	}
	return db, motifs, nil
}

// The shape of the synthetic Drosophila stand-in.
const (
	// Sequence lengths.
	dnaMeanLen, dnaMinLen, dnaMaxLen = 4096, 512, 4 * 4096
	// dnaRepeatFraction is the fraction of each sequence built from repeated
	// segments (genomes are repeat-rich, which stresses the suffix tree).
	dnaRepeatFraction = 0.2
	// dnaGCContent is the G+C fraction (Drosophila ~0.42).
	dnaGCContent = 0.42
)

// DNAConfig configures the synthetic nucleotide database generator (the
// Drosophila stand-in).
type DNAConfig struct {
	// NumSequences is the number of nucleotide sequences (the Drosophila
	// set has ~1K).
	NumSequences int
	// Seed makes generation deterministic.
	Seed int64
}

// DefaultDNAConfig returns a laptop-scale stand-in for the Drosophila set.
func DefaultDNAConfig(totalResidues int64) DNAConfig {
	n := int(totalResidues / dnaMeanLen)
	if n < 4 {
		n = 4
	}
	return DNAConfig{NumSequences: n, Seed: 7411}
}

// DNADatabase generates a nucleotide database with repeat structure.
func DNADatabase(cfg DNAConfig) (*seq.Database, error) {
	if cfg.NumSequences <= 0 {
		return nil, fmt.Errorf("workload: invalid DNA config %+v", cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// A variable, so the frequencies below are float64 arithmetic rather
	// than exact constant folding (which can differ in the last bit).
	gc := float64(dnaGCContent)
	freqs := make([]float64, seq.DNA.Size())
	codeA, _ := seq.DNA.Code('A')
	codeC, _ := seq.DNA.Code('C')
	codeG, _ := seq.DNA.Code('G')
	codeT, _ := seq.DNA.Code('T')
	freqs[codeA] = (1 - gc) / 2
	freqs[codeT] = (1 - gc) / 2
	freqs[codeC] = gc / 2
	freqs[codeG] = gc / 2
	sampler := newResidueSampler(seq.DNA, freqs)

	// A small library of repeat elements shared across sequences.
	var repeats [][]byte
	for i := 0; i < 8; i++ {
		repeats = append(repeats, sampler.sample(rng, 50+rng.Intn(200)))
	}
	seqs := make([]seq.Sequence, cfg.NumSequences)
	for i := range seqs {
		n := sampleLength(rng, dnaMeanLen, dnaMinLen, dnaMaxLen)
		var res []byte
		for len(res) < n {
			if rng.Float64() < dnaRepeatFraction {
				res = append(res, repeats[rng.Intn(len(repeats))]...)
			} else {
				res = append(res, sampler.sample(rng, 100+rng.Intn(400))...)
			}
		}
		seqs[i] = seq.Sequence{
			ID:          fmt.Sprintf("SYN|CHR%03d", i),
			Description: "synthetic nucleotide scaffold",
			Residues:    res[:n],
		}
	}
	return seq.NewDatabase(seq.DNA, seqs)
}

// Query is one workload query.
type Query struct {
	// ID names the query.
	ID string
	// Residues is the encoded query.
	Residues []byte
	// SourceMotif is the index of the motif family the query was drawn
	// from, or -1 for background (random) queries.
	SourceMotif int
}

// The shape of the ProClass stand-in: short peptide queries.
const (
	// Query lengths (the paper: 6-56, mean ~16).
	queryMinLen, queryMaxLen, queryMeanLen = 6, 56, 16
	// queryMutationRate is the per-residue probability of mutating a query
	// away from its source motif.
	queryMutationRate = 0.10
	// backgroundFraction is the fraction of queries drawn from the background
	// distribution instead of a planted motif (these behave like queries with
	// no strong homolog).
	backgroundFraction = 0.15
)

// QueryConfig configures motif-derived query generation.
type QueryConfig struct {
	// Num is the number of queries.
	Num int
	// Seed makes generation deterministic.
	Seed int64
}

// DefaultQueryConfig mirrors the paper's protein query workload: 100 motif
// queries with lengths 6-56 and an average length of 16.
func DefaultQueryConfig(num int) QueryConfig {
	if num <= 0 {
		num = 100
	}
	return QueryConfig{Num: num, Seed: 271}
}

// MotifQueries draws queries from the planted motifs of a database (plus the
// backgroundFraction of background queries).
func MotifQueries(db *seq.Database, motifs []Motif, cfg QueryConfig) ([]Query, error) {
	if db == nil {
		return nil, fmt.Errorf("workload: nil database")
	}
	if cfg.Num <= 0 {
		return nil, fmt.Errorf("workload: invalid query config %+v", cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	stats := db.ComputeStats()
	sampler := newResidueSampler(db.Alphabet(), stats.Frequencies)
	queries := make([]Query, 0, cfg.Num)
	for i := 0; i < cfg.Num; i++ {
		n := sampleLength(rng, queryMeanLen, queryMinLen, queryMaxLen)
		q := Query{ID: fmt.Sprintf("Q%04d", i), SourceMotif: -1}
		if len(motifs) > 0 && rng.Float64() >= backgroundFraction {
			mi := rng.Intn(len(motifs))
			motif := motifs[mi].Residues
			q.SourceMotif = mi
			if n > len(motif) {
				n = len(motif)
			}
			start := 0
			if len(motif) > n {
				start = rng.Intn(len(motif) - n + 1)
			}
			q.Residues = mutate(rng, sampler, motif[start:start+n], queryMutationRate, 0)
		} else {
			q.Residues = sampler.sample(rng, n)
		}
		if len(q.Residues) < queryMinLen {
			q.Residues = append(q.Residues, sampler.sample(rng, queryMinLen-len(q.Residues))...)
		}
		queries = append(queries, q)
	}
	return queries, nil
}

// residueSampler draws residues from a background distribution.
type residueSampler struct {
	alphabet *seq.Alphabet
	cdf      []float64
}

func newResidueSampler(a *seq.Alphabet, freqs []float64) *residueSampler {
	n := a.Size()
	cdf := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		f := 0.0
		if i < len(freqs) {
			f = freqs[i]
		}
		if f < 0 {
			f = 0
		}
		sum += f
	}
	if sum <= 0 {
		// Uniform fallback.
		for i := 0; i < n; i++ {
			cdf[i] = float64(i+1) / float64(n)
		}
		return &residueSampler{alphabet: a, cdf: cdf}
	}
	acc := 0.0
	for i := 0; i < n; i++ {
		f := 0.0
		if i < len(freqs) {
			f = freqs[i]
		}
		if f < 0 {
			f = 0
		}
		acc += f / sum
		cdf[i] = acc
	}
	return &residueSampler{alphabet: a, cdf: cdf}
}

func (s *residueSampler) one(rng *rand.Rand) byte {
	u := rng.Float64()
	for i, c := range s.cdf {
		if u <= c {
			return byte(i)
		}
	}
	return byte(len(s.cdf) - 1)
}

func (s *residueSampler) sample(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = s.one(rng)
	}
	return out
}

// proteinBackground returns the Robinson & Robinson amino-acid frequencies
// indexed by seq.Protein codes (B, Z, X get negligible mass).
func proteinBackground() []float64 {
	return score.DefaultFrequencies(score.BLOSUM62())
}

// sampleLength draws a length from a log-normal-like distribution with the
// given mean, clamped to [min, max].
func sampleLength(rng *rand.Rand, mean, min, max int) int {
	if mean < min {
		mean = min
	}
	sigma := 0.6
	mu := math.Log(float64(mean)) - sigma*sigma/2
	n := int(math.Round(math.Exp(rng.NormFloat64()*sigma + mu)))
	if n < min {
		n = min
	}
	if n > max {
		n = max
	}
	return n
}

// mutate returns a copy of residues with per-position substitutions and
// (optionally) indels applied.
func mutate(rng *rand.Rand, sampler *residueSampler, residues []byte, subRate, indelRate float64) []byte {
	out := make([]byte, 0, len(residues)+4)
	for _, c := range residues {
		r := rng.Float64()
		switch {
		case r < indelRate/2:
			// Deletion: skip the residue.
		case r < indelRate:
			// Insertion: keep the residue and add a random one.
			out = append(out, c, sampler.one(rng))
		case r < indelRate+subRate:
			out = append(out, sampler.one(rng))
		default:
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		out = append(out, residues[0])
	}
	return out
}

// insertAt splices insert into residues at a random position.
func insertAt(rng *rand.Rand, residues, insert []byte) []byte {
	pos := 0
	if len(residues) > 0 {
		pos = rng.Intn(len(residues) + 1)
	}
	out := make([]byte, 0, len(residues)+len(insert))
	out = append(out, residues[:pos]...)
	out = append(out, insert...)
	out = append(out, residues[pos:]...)
	return out
}
