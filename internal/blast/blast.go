// Package blast implements a word-seeded heuristic local-alignment searcher
// in the style of NCBI BLAST (Altschul et al. 1990/1997).  It exists as the
// heuristic baseline of the paper's evaluation: fast, but — unlike OASIS and
// Smith-Waterman — not guaranteed to find every alignment above the score
// threshold (Figures 3 and 5).
//
// The pipeline is the classic one: fixed-length words of the query are
// expanded into a scoring neighbourhood, matched against a precomputed word
// index of the database, optionally filtered with the two-hit heuristic,
// extended without gaps under an X-drop rule, and the best seeds are then
// extended with gaps.  Scores are converted to E-values with the
// Karlin-Altschul statistics from internal/score.
package blast

import (
	"fmt"
	"sort"

	"repro/internal/align"
	"repro/internal/score"
	"repro/internal/seq"
)

// The BLAST 2 parameters every search runs with.
const (
	// proteinWordSize and dnaWordSize are the seed word lengths.
	proteinWordSize = 3
	dnaWordSize     = 11
	// neighborThreshold is the minimum word score T for a database word to
	// be a seed match of a query word (protein only; DNA words must match
	// exactly).
	neighborThreshold = 11
	// windowSize is the two-hit window along one diagonal.
	windowSize = 40
	// xDrop is the score drop-off that terminates ungapped extension.
	xDrop = 7
	// gapTrigger is the ungapped score required before a gapped extension
	// is attempted.
	gapTrigger = 18
	// defaultEValue is the reporting threshold when Options.EValue is zero.
	defaultEValue = 10
)

// Options configures a BLAST-style search.
type Options struct {
	// TwoHit requires two seed hits on the same diagonal within the two-hit
	// window before extension is triggered (the BLAST 2 protein default).
	TwoHit bool
	// EValue is the reporting threshold (default 10).
	EValue float64
	// MaxHits caps the number of reported sequences (0 = unlimited).
	MaxHits int
}

// Stats counts the work done by a search.
type Stats struct {
	// QueryWords is the number of query word positions processed.
	QueryWords int64
	// NeighborWords is the number of (word, query position) seed patterns
	// generated.
	NeighborWords int64
	// SeedHits is the number of word matches against the database.
	SeedHits int64
	// Extensions is the number of ungapped extensions performed.
	Extensions int64
	// GappedExtensions is the number of gapped extensions performed.
	GappedExtensions int64
}

// Hit is a reported database sequence with its best (heuristically found)
// alignment score.
type Hit struct {
	SeqIndex int
	SeqID    string
	Score    int
	EValue   float64
	// QueryStart/QueryEnd/TargetStart/TargetEnd delimit the gapped
	// alignment found for the best-scoring HSP (0-based, end exclusive).
	QueryStart, QueryEnd   int
	TargetStart, TargetEnd int
}

// Searcher holds the database word index; build once, query many times.
type Searcher struct {
	db     *seq.Database
	scheme score.Scheme
	ka     score.KarlinAltschul
	opts   Options

	wordSize int
	alphaN   int
	// index maps an encoded word to the global positions at which it
	// occurs in the database.
	index map[uint32][]int32
}

// NewSearcher builds the word index for the database under the scoring
// scheme.
func NewSearcher(db *seq.Database, sch score.Scheme, opts Options) (*Searcher, error) {
	if db == nil {
		return nil, fmt.Errorf("blast: nil database")
	}
	if err := sch.Validate(); err != nil {
		return nil, err
	}
	if sch.Matrix.Alphabet() != db.Alphabet() {
		return nil, fmt.Errorf("blast: matrix %q is over a different alphabet than the database", sch.Matrix.Name())
	}
	if opts.EValue == 0 {
		opts.EValue = defaultEValue
	}
	wordSize := proteinWordSize
	if db.Alphabet().Kind() == seq.KindDNA {
		wordSize = dnaWordSize
	}
	stats := db.ComputeStats()
	ka, err := score.Params(sch.Matrix, stats.Frequencies)
	if err != nil {
		// Databases with degenerate composition (e.g. tiny test inputs) can
		// make the observed-frequency statistics undefined; fall back to
		// the standard background frequencies.
		ka, err = score.Params(sch.Matrix, nil)
		if err != nil {
			return nil, err
		}
	}
	s := &Searcher{
		db:       db,
		scheme:   sch,
		ka:       ka,
		opts:     opts,
		wordSize: wordSize,
		alphaN:   db.Alphabet().Size(),
		index:    map[uint32][]int32{},
	}
	if err := s.buildIndex(); err != nil {
		return nil, err
	}
	return s, nil
}

// KA returns the Karlin-Altschul parameters the searcher uses; exposed so
// experiments can convert its E-value threshold into the equivalent OASIS
// minScore (paper Equation 3).
func (s *Searcher) KA() score.KarlinAltschul { return s.ka }

// encodeWord packs w symbols into a uint32 (base alphabet-size).
func (s *Searcher) encodeWord(symbols []byte) (uint32, bool) {
	var v uint32
	for _, c := range symbols {
		if int(c) >= s.alphaN {
			return 0, false // terminator or invalid symbol
		}
		v = v*uint32(s.alphaN) + uint32(c)
	}
	return v, true
}

// buildIndex scans the concatenated database once and records every word
// occurrence.
func (s *Searcher) buildIndex() error {
	concat := s.db.Concat()
	if int64(len(concat)) > int64(1)<<31-1 {
		return fmt.Errorf("blast: database too large for 32-bit word index")
	}
	w := s.wordSize
	for i := 0; i+w <= len(concat); i++ {
		code, ok := s.encodeWord(concat[i : i+w])
		if !ok {
			continue
		}
		s.index[code] = append(s.index[code], int32(i))
	}
	return nil
}

// seed is a word match between query offset qPos and global database
// position dbPos.
type seed struct {
	qPos  int
	dbPos int32
}

// Search runs the heuristic search for the query and returns the best hit
// per database sequence with E-value at most the configured threshold,
// sorted by decreasing score.
func (s *Searcher) Search(query []byte, st *Stats) ([]Hit, error) {
	if len(query) == 0 {
		return nil, fmt.Errorf("blast: empty query")
	}
	if !s.db.Alphabet().ValidCodes(query) {
		return nil, fmt.Errorf("blast: query contains invalid symbols")
	}
	if st == nil {
		st = &Stats{}
	}
	seeds := s.findSeeds(query, st)
	if len(seeds) == 0 {
		return nil, nil
	}
	triggered := s.filterSeeds(query, seeds)
	best := map[int]Hit{} // sequence index -> best hit
	for _, sd := range triggered {
		st.Extensions++
		ungapped := s.ungappedExtend(query, sd)
		if ungapped < gapTrigger {
			continue
		}
		st.GappedExtensions++
		hit, ok := s.gappedExtend(query, sd)
		if !ok {
			continue
		}
		if prev, exists := best[hit.SeqIndex]; !exists || hit.Score > prev.Score {
			best[hit.SeqIndex] = hit
		}
	}
	var hits []Hit
	for _, h := range best {
		h.EValue = s.ka.EValue(h.Score, len(query), s.db.TotalResidues())
		if h.EValue <= s.opts.EValue {
			hits = append(hits, h)
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].SeqIndex < hits[j].SeqIndex
	})
	if s.opts.MaxHits > 0 && len(hits) > s.opts.MaxHits {
		hits = hits[:s.opts.MaxHits]
	}
	return hits, nil
}

// findSeeds generates neighbourhood words for every query position and looks
// them up in the database index.
func (s *Searcher) findSeeds(query []byte, st *Stats) []seed {
	w := s.wordSize
	var seeds []seed
	if len(query) < w {
		return nil
	}
	protein := s.db.Alphabet().Kind() == seq.KindProtein
	for q := 0; q+w <= len(query); q++ {
		st.QueryWords++
		qWord := query[q : q+w]
		if protein {
			s.enumerateNeighborhood(qWord, func(code uint32) {
				st.NeighborWords++
				for _, pos := range s.index[code] {
					st.SeedHits++
					seeds = append(seeds, seed{qPos: q, dbPos: pos})
				}
			})
		} else {
			if code, ok := s.encodeWord(qWord); ok {
				st.NeighborWords++
				for _, pos := range s.index[code] {
					st.SeedHits++
					seeds = append(seeds, seed{qPos: q, dbPos: pos})
				}
			}
		}
	}
	return seeds
}

// enumerateNeighborhood calls fn with the encoded form of every word whose
// substitution score against qWord reaches the neighbourhood threshold T
// (neighborThreshold).
// The enumeration prunes with the per-position row maxima so it does not
// visit the entire |alphabet|^w space.
func (s *Searcher) enumerateNeighborhood(qWord []byte, fn func(code uint32)) {
	w := len(qWord)
	mat := s.scheme.Matrix
	// bestRemaining[i] = max achievable score for positions i..w-1.
	bestRemaining := make([]int, w+1)
	for i := w - 1; i >= 0; i-- {
		bestRemaining[i] = bestRemaining[i+1] + mat.RowMax(qWord[i])
	}
	word := make([]byte, w)
	var rec func(i, scoreSoFar int)
	rec = func(i, scoreSoFar int) {
		if scoreSoFar+bestRemaining[i] < neighborThreshold {
			return
		}
		if i == w {
			if code, ok := s.encodeWord(word); ok {
				fn(code)
			}
			return
		}
		for c := 0; c < s.alphaN; c++ {
			word[i] = byte(c)
			rec(i+1, scoreSoFar+mat.Score(qWord[i], byte(c)))
		}
	}
	rec(0, 0)
}

// filterSeeds applies the two-hit heuristic when enabled: a seed triggers an
// extension only when another seed lies on the same (sequence, diagonal)
// within the window, at a distinct offset.  With one-hit mode every seed
// triggers.
func (s *Searcher) filterSeeds(query []byte, seeds []seed) []seed {
	if !s.opts.TwoHit {
		return dedupeSeeds(seeds)
	}
	type diagKey struct {
		seqIdx int
		diag   int64
	}
	byDiag := map[diagKey][]seed{}
	for _, sd := range seeds {
		seqIdx, _, err := s.db.Locate(int64(sd.dbPos))
		if err != nil {
			continue
		}
		key := diagKey{seqIdx: seqIdx, diag: int64(sd.dbPos) - int64(sd.qPos)}
		byDiag[key] = append(byDiag[key], sd)
	}
	var out []seed
	for _, group := range byDiag {
		if len(group) < 2 {
			continue
		}
		sort.Slice(group, func(i, j int) bool { return group[i].dbPos < group[j].dbPos })
		for i := 1; i < len(group); i++ {
			gap := int(group[i].dbPos - group[i-1].dbPos)
			if gap > 0 && gap <= windowSize {
				out = append(out, group[i])
			}
		}
	}
	return dedupeSeeds(out)
}

func dedupeSeeds(seeds []seed) []seed {
	seen := map[seed]bool{}
	var out []seed
	for _, sd := range seeds {
		if !seen[sd] {
			seen[sd] = true
			out = append(out, sd)
		}
	}
	return out
}

// ungappedExtend extends a seed in both directions along its diagonal,
// stopping when the running score drops xDrop below the best seen.
func (s *Searcher) ungappedExtend(query []byte, sd seed) int {
	concat := s.db.Concat()
	mat := s.scheme.Matrix
	w := s.wordSize
	// Score of the seed word itself.
	base := 0
	for k := 0; k < w && sd.qPos+k < len(query); k++ {
		base += mat.Score(query[sd.qPos+k], concat[int(sd.dbPos)+k])
	}
	best := base
	// Extend right.
	run := base
	qi, di := sd.qPos+w, int(sd.dbPos)+w
	for qi < len(query) && di < len(concat) && concat[di] != seq.Terminator {
		run += mat.Score(query[qi], concat[di])
		if run > best {
			best = run
		}
		if best-run > xDrop {
			break
		}
		qi++
		di++
	}
	// Extend left.
	run = best
	qi, di = sd.qPos-1, int(sd.dbPos)-1
	for qi >= 0 && di >= 0 && concat[di] != seq.Terminator {
		run += mat.Score(query[qi], concat[di])
		if run > best {
			best = run
		}
		if best-run > xDrop {
			break
		}
		qi--
		di--
	}
	return best
}

// gappedExtend runs a Smith-Waterman alignment of the query against a window
// of the target sequence centred on the seed, which is how gapped BLAST
// recovers a full alignment around a high-scoring pair.
func (s *Searcher) gappedExtend(query []byte, sd seed) (Hit, bool) {
	seqIdx, local, err := s.db.Locate(int64(sd.dbPos))
	if err != nil {
		return Hit{}, false
	}
	target := s.db.Sequence(seqIdx).Residues
	margin := len(query) + windowSize
	lo := int(local) - margin
	if lo < 0 {
		lo = 0
	}
	hi := int(local) + s.wordSize + margin
	if hi > len(target) {
		hi = len(target)
	}
	window := target[lo:hi]
	a, err := align.Align(query, window, s.scheme)
	if err != nil || a.Score <= 0 {
		return Hit{}, false
	}
	return Hit{
		SeqIndex:    seqIdx,
		SeqID:       s.db.Sequence(seqIdx).ID,
		Score:       a.Score,
		QueryStart:  a.QueryStart,
		QueryEnd:    a.QueryEnd,
		TargetStart: lo + a.TargetStart,
		TargetEnd:   lo + a.TargetEnd,
	}, true
}
