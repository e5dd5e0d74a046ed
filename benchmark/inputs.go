package main

import (
	"fmt"
	"sort"

	"repro/internal/score"
	"repro/internal/seq"
	gen "repro/internal/workload"
)

// The scoring and selectivity every request uses: the paper's protein
// configuration (PAM30, linear gap -10) at the blastp short-query E-value.
const (
	matrixName = "PAM30"
	gapPenalty = -10
	eValue     = 20000
)

// scale sizes one run's inputs.  The benchmark always runs at fullScale; the
// smoke test shrinks every field so the whole harness runs in seconds.
type scale struct {
	// residues is the approximate base corpus size.
	residues int64
	// heldOut is how many extra sequences of the same generator are kept out
	// of the corpus for /insert.
	heldOut int
	// queries is how many DISTINCT queries are generated; a run fails rather
	// than repeat one, because a repeated query is a result-cache hit.
	queries int
	// warmup is the number of queries sent before timing starts.
	warmup int
	// setups is how many times set-up is repeated (setup_s is their median).
	setups int
	// ladder is how many queries the in-process layer ladder runs, and
	// ladderInserts how many sequences its write-path rungs insert (the
	// *_at_500 metrics are named for the full-scale value).
	ladder, ladderInserts int
}

// fullScale matches the corpus of every BENCH_oasis.json record (~406k
// residues, ~1.5k sequences, ~4.3 MB of index).
var fullScale = scale{residues: 400_000, heldOut: 3000, queries: 12_000, warmup: 50, setups: 3, ladder: 200, ladderInserts: 500}

// query is one generated request: the residues, their letter form as sent on
// the wire, and the explicit score threshold the harness computed for it.
type query struct {
	id       string
	text     string
	residues []byte
	minScore int
	// background marks a query drawn from the residue background rather than
	// from a planted motif: it has no strong match in the corpus.
	background bool
}

// inputs is everything a run feeds the servers, as a function of the seed
// alone: the base corpus (also the oracle's own copy), the held-out
// sequences for /insert, and the distinct query list.
type inputs struct {
	seed    int64
	scheme  score.Scheme
	base    *seq.Database
	heldOut []seq.Sequence
	queries []query
}

// generate builds the inputs for a seed.  The corpus and the held-out
// sequences come from one workload.ProteinDatabase call (so held-out
// sequences carry planted motif copies like the rest); queries come from
// workload.MotifQueries, de-duplicated, each with its min_score computed
// against the BASE residue count so the threshold does not drift as the
// served corpus grows.
func generate(seed int64, sc scale) (*inputs, error) {
	matrix := score.ByName(matrixName)
	scheme, err := score.NewScheme(matrix, gapPenalty)
	if err != nil {
		return nil, err
	}
	// The same statistics oasis.MinScoreForEValue uses, solved once instead
	// of once per query.
	ka, err := score.Params(matrix, nil)
	if err != nil {
		return nil, err
	}
	cfg := gen.DefaultProteinConfig(sc.residues)
	nBase := cfg.NumSequences
	cfg.NumSequences += sc.heldOut
	cfg.Seed = seed
	all, motifs, err := gen.ProteinDatabase(cfg)
	if err != nil {
		return nil, err
	}
	seqs := all.Sequences()
	base, err := seq.NewDatabase(seq.Protein, seqs[:nBase])
	if err != nil {
		return nil, err
	}
	in := &inputs{seed: seed, scheme: scheme, base: base, heldOut: seqs[nBase:]}

	seen := make(map[string]bool, sc.queries)
	for round := int64(0); len(in.queries) < sc.queries; round++ {
		if round == 8 {
			return nil, fmt.Errorf("only %d distinct queries after %d rounds, want %d", len(in.queries), round, sc.queries)
		}
		qcfg := gen.DefaultQueryConfig(sc.queries)
		// A different stream per round; the multiplier keeps seeds of
		// neighbouring runs (seed, seed+1, ...) from sharing query streams.
		qcfg.Seed = seed*16 + round + 1
		cands, err := gen.MotifQueries(base, motifs, qcfg)
		if err != nil {
			return nil, err
		}
		for _, c := range cands {
			text := seq.Protein.Decode(c.Residues)
			if seen[text] || len(in.queries) == sc.queries {
				continue
			}
			seen[text] = true
			in.queries = append(in.queries, query{
				text:       text,
				residues:   c.Residues,
				minScore:   ka.MinScore(eValue, len(c.Residues), base.TotalResidues()),
				background: c.SourceMotif < 0,
			})
		}
	}
	stratify(in.queries)
	for i := range in.queries {
		in.queries[i].id = fmt.Sprintf("Q%05d", i)
	}
	return in, nil
}

// strata is the window over which the query order is balanced.
const strata = 20

// stratify reorders the queries so that every strata consecutive ones span
// the whole workload: the same share of background queries, and of the motif
// queries one from each length band.  A query's cost grows with its length
// and jumps when it has no strong match, and a phase sends only a few
// hundred, so a plain random order lets one phase draw a visibly heavier mix
// than the next; the population is unchanged, only the order.
func stratify(qs []query) {
	sort.SliceStable(qs, func(i, j int) bool {
		if qs[i].background != qs[j].background {
			return qs[i].background
		}
		return len(qs[i].residues) < len(qs[j].residues)
	})
	per := len(qs) / strata
	out := make([]query, 0, len(qs))
	for i := 0; i < per*strata; i++ {
		out = append(out, qs[(i%strata)*per+i/strata])
	}
	// Fewer than strata left over: they keep their sorted order at the end.
	out = append(out, qs[per*strata:]...)
	copy(qs, out)
}
