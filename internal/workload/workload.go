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

// ProteinConfig configures the synthetic protein database generator.
type ProteinConfig struct {
	// NumSequences is the number of protein sequences (SWISS-PROT has
	// ~100K; benchmarks use a scaled-down default).
	NumSequences int
	// MinLen/MaxLen bound sequence lengths (SWISS-PROT: 7..2048).
	MinLen, MaxLen int
	// MeanLen is the target mean sequence length (SWISS-PROT: ~400;
	// the scaled default is smaller to keep benchmarks fast).
	MeanLen int
	// NumFamilies is the number of motif families planted into the
	// database.
	NumFamilies int
	// FamilySize is the number of sequences that receive a (mutated) copy
	// of each family motif.
	FamilySize int
	// MotifMinLen/MotifMaxLen bound motif lengths (ProClass: 3..80).
	MotifMinLen, MotifMaxLen int
	// MutationRate is the per-residue probability that a planted motif
	// copy differs from the family motif.
	MutationRate float64
	// IndelRate is the per-residue probability of an insertion or deletion
	// in a planted motif copy.
	IndelRate float64
	// Seed makes generation deterministic.
	Seed int64
}

// DefaultProteinConfig returns a laptop-scale stand-in for SWISS-PROT with
// roughly the requested total number of residues.
func DefaultProteinConfig(totalResidues int64) ProteinConfig {
	meanLen := 256
	n := int(totalResidues / int64(meanLen))
	if n < 10 {
		n = 10
	}
	return ProteinConfig{
		NumSequences: n,
		MinLen:       7,
		MaxLen:       2048,
		MeanLen:      meanLen,
		NumFamilies:  n/20 + 5,
		FamilySize:   6,
		MotifMinLen:  8,
		MotifMaxLen:  40,
		MutationRate: 0.15,
		IndelRate:    0.02,
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
	if err := validateProteinConfig(&cfg); err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	freqs := proteinBackground()
	sampler := newResidueSampler(seq.Protein, freqs)

	// Base sequences.
	seqs := make([]seq.Sequence, cfg.NumSequences)
	for i := range seqs {
		n := sampleLength(rng, cfg.MeanLen, cfg.MinLen, cfg.MaxLen)
		seqs[i] = seq.Sequence{
			ID:          fmt.Sprintf("SYN|P%05d", i),
			Description: "synthetic protein",
			Residues:    sampler.sample(rng, n),
		}
	}

	// Plant motif families.
	motifs := make([]Motif, 0, cfg.NumFamilies)
	for f := 0; f < cfg.NumFamilies; f++ {
		mLen := cfg.MotifMinLen + rng.Intn(cfg.MotifMaxLen-cfg.MotifMinLen+1)
		motif := Motif{
			ID:       fmt.Sprintf("MOTIF%04d", f),
			Residues: sampler.sample(rng, mLen),
		}
		for k := 0; k < cfg.FamilySize; k++ {
			target := rng.Intn(len(seqs))
			copyRes := mutate(rng, sampler, motif.Residues, cfg.MutationRate, cfg.IndelRate)
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

func validateProteinConfig(cfg *ProteinConfig) error {
	if cfg.NumSequences <= 0 {
		return fmt.Errorf("workload: NumSequences must be positive")
	}
	if cfg.MinLen < 1 || cfg.MaxLen < cfg.MinLen {
		return fmt.Errorf("workload: invalid length bounds [%d,%d]", cfg.MinLen, cfg.MaxLen)
	}
	if cfg.MeanLen < cfg.MinLen {
		cfg.MeanLen = cfg.MinLen
	}
	if cfg.MotifMinLen < 3 || cfg.MotifMaxLen < cfg.MotifMinLen {
		return fmt.Errorf("workload: invalid motif length bounds [%d,%d]", cfg.MotifMinLen, cfg.MotifMaxLen)
	}
	if cfg.MutationRate < 0 || cfg.MutationRate > 1 || cfg.IndelRate < 0 || cfg.IndelRate > 1 {
		return fmt.Errorf("workload: rates must be in [0,1]")
	}
	return nil
}

// DNAConfig configures the synthetic nucleotide database generator (the
// Drosophila stand-in).
type DNAConfig struct {
	// NumSequences is the number of nucleotide sequences (the Drosophila
	// set has ~1K).
	NumSequences int
	// MeanLen is the target mean sequence length.
	MeanLen int
	// MinLen/MaxLen bound sequence lengths.
	MinLen, MaxLen int
	// RepeatFraction is the fraction of each sequence built from repeated
	// segments (genomes are repeat-rich, which stresses the suffix tree).
	RepeatFraction float64
	// GCContent is the G+C fraction (Drosophila ~0.42).
	GCContent float64
	// Seed makes generation deterministic.
	Seed int64
}

// DefaultDNAConfig returns a laptop-scale stand-in for the Drosophila set.
func DefaultDNAConfig(totalResidues int64) DNAConfig {
	meanLen := 4096
	n := int(totalResidues / int64(meanLen))
	if n < 4 {
		n = 4
	}
	return DNAConfig{
		NumSequences:   n,
		MeanLen:        meanLen,
		MinLen:         512,
		MaxLen:         meanLen * 4,
		RepeatFraction: 0.2,
		GCContent:      0.42,
		Seed:           7411,
	}
}

// DNADatabase generates a nucleotide database with repeat structure.
func DNADatabase(cfg DNAConfig) (*seq.Database, error) {
	if cfg.NumSequences <= 0 || cfg.MinLen < 1 || cfg.MaxLen < cfg.MinLen {
		return nil, fmt.Errorf("workload: invalid DNA config %+v", cfg)
	}
	if cfg.GCContent <= 0 || cfg.GCContent >= 1 {
		cfg.GCContent = 0.42
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	freqs := make([]float64, seq.DNA.Size())
	codeA, _ := seq.DNA.Code('A')
	codeC, _ := seq.DNA.Code('C')
	codeG, _ := seq.DNA.Code('G')
	codeT, _ := seq.DNA.Code('T')
	freqs[codeA] = (1 - cfg.GCContent) / 2
	freqs[codeT] = (1 - cfg.GCContent) / 2
	freqs[codeC] = cfg.GCContent / 2
	freqs[codeG] = cfg.GCContent / 2
	sampler := newResidueSampler(seq.DNA, freqs)

	// A small library of repeat elements shared across sequences.
	var repeats [][]byte
	for i := 0; i < 8; i++ {
		repeats = append(repeats, sampler.sample(rng, 50+rng.Intn(200)))
	}
	seqs := make([]seq.Sequence, cfg.NumSequences)
	for i := range seqs {
		n := sampleLength(rng, cfg.MeanLen, cfg.MinLen, cfg.MaxLen)
		var res []byte
		for len(res) < n {
			if rng.Float64() < cfg.RepeatFraction {
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

// QueryConfig configures motif-derived query generation (the ProClass
// stand-in: short peptide queries, lengths 6-56, mean ~16).
type QueryConfig struct {
	// Num is the number of queries.
	Num int
	// MinLen/MaxLen bound query lengths.
	MinLen, MaxLen int
	// MeanLen is the target mean query length.
	MeanLen int
	// MutationRate is the per-residue probability of mutating the query
	// away from its source motif.
	MutationRate float64
	// BackgroundFraction is the fraction of queries drawn from the
	// background distribution instead of a planted motif (these behave
	// like queries with no strong homolog).
	BackgroundFraction float64
	// Seed makes generation deterministic.
	Seed int64
}

// DefaultQueryConfig mirrors the paper's protein query workload: 100 motif
// queries with lengths 6-56 and an average length of 16.
func DefaultQueryConfig(num int) QueryConfig {
	if num <= 0 {
		num = 100
	}
	return QueryConfig{
		Num:                num,
		MinLen:             6,
		MaxLen:             56,
		MeanLen:            16,
		MutationRate:       0.10,
		BackgroundFraction: 0.15,
		Seed:               271,
	}
}

// MotifQueries draws queries from the planted motifs of a database (plus a
// configurable fraction of background queries).
func MotifQueries(db *seq.Database, motifs []Motif, cfg QueryConfig) ([]Query, error) {
	if db == nil {
		return nil, fmt.Errorf("workload: nil database")
	}
	if cfg.Num <= 0 || cfg.MinLen < 1 || cfg.MaxLen < cfg.MinLen {
		return nil, fmt.Errorf("workload: invalid query config %+v", cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	stats := db.ComputeStats()
	sampler := newResidueSampler(db.Alphabet(), stats.Frequencies)
	queries := make([]Query, 0, cfg.Num)
	for i := 0; i < cfg.Num; i++ {
		n := sampleLength(rng, cfg.MeanLen, cfg.MinLen, cfg.MaxLen)
		q := Query{ID: fmt.Sprintf("Q%04d", i), SourceMotif: -1}
		if len(motifs) > 0 && rng.Float64() >= cfg.BackgroundFraction {
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
			q.Residues = mutate(rng, sampler, motif[start:start+n], cfg.MutationRate, 0)
		} else {
			q.Residues = sampler.sample(rng, n)
		}
		if len(q.Residues) < cfg.MinLen {
			q.Residues = append(q.Residues, sampler.sample(rng, cfg.MinLen-len(q.Residues))...)
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
