package align

import (
	"fmt"
	"sort"

	"repro/internal/score"
	"repro/internal/seq"
)

// Stats accumulates the work counters the paper uses to compare the
// filtering behaviour of OASIS and S-W (Figure 4).
type Stats struct {
	// ColumnsExpanded is the number of dynamic-programming columns filled
	// (for S-W, one column per target symbol per sequence).
	ColumnsExpanded int64
	// CellsComputed is the number of individual matrix cells evaluated.
	CellsComputed int64
	// SequencesScanned is the number of database sequences visited.
	SequencesScanned int64
}

// Add merges other into s.
func (s *Stats) Add(other Stats) {
	s.ColumnsExpanded += other.ColumnsExpanded
	s.CellsComputed += other.CellsComputed
	s.SequencesScanned += other.SequencesScanned
}

// Score computes the optimal Smith-Waterman local-alignment score between a
// query and a target (encoded symbols), using O(min) memory (two columns).
// Stats, when non-nil, is updated with the work performed.
func Score(query, target []byte, sch score.Scheme, st *Stats) int {
	m := len(query)
	best := 0
	if m == 0 || len(target) == 0 {
		return 0
	}
	prev := make([]int, m+1)
	cur := make([]int, m+1)
	gap := sch.Gap
	for j := 1; j <= len(target); j++ {
		tj := target[j-1]
		for i := 1; i <= m; i++ {
			s := prev[i-1] + sch.Matrix.Score(query[i-1], tj)
			if v := prev[i] + gap; v > s {
				s = v
			}
			if v := cur[i-1] + gap; v > s {
				s = v
			}
			if s < 0 {
				s = 0
			}
			cur[i] = s
			if s > best {
				best = s
			}
		}
		prev, cur = cur, prev
	}
	if st != nil {
		st.ColumnsExpanded += int64(len(target))
		st.CellsComputed += int64(len(target)) * int64(m)
	}
	return best
}

// Backpointer codes for the traceback matrix.
const (
	tbNone byte = iota
	tbDiag
	tbUp   // insertion: consume query residue (gap in target)
	tbLeft // deletion: consume target residue (gap in query)
)

// Align computes the optimal local alignment between query and target and
// returns it with a full traceback.  Memory is O(m*n); intended for pairwise
// use and for recovering the operations of hits found by database searches.
func Align(query, target []byte, sch score.Scheme) (Alignment, error) {
	if err := sch.Validate(); err != nil {
		return Alignment{}, err
	}
	m, n := len(query), len(target)
	if m == 0 || n == 0 {
		return Alignment{}, nil
	}
	// h is (m+1) x (n+1), row-major by query index.
	h := make([]int, (m+1)*(n+1))
	tb := make([]byte, (m+1)*(n+1))
	idx := func(i, j int) int { return i*(n+1) + j }
	best, bi, bj := 0, 0, 0
	gap := sch.Gap
	for i := 1; i <= m; i++ {
		qi := query[i-1]
		for j := 1; j <= n; j++ {
			sDiag := h[idx(i-1, j-1)] + sch.Matrix.Score(qi, target[j-1])
			sUp := h[idx(i-1, j)] + gap
			sLeft := h[idx(i, j-1)] + gap
			v, p := 0, tbNone
			if sDiag > v {
				v, p = sDiag, tbDiag
			}
			if sUp > v {
				v, p = sUp, tbUp
			}
			if sLeft > v {
				v, p = sLeft, tbLeft
			}
			h[idx(i, j)] = v
			tb[idx(i, j)] = p
			if v > best {
				best, bi, bj = v, i, j
			}
		}
	}
	if best == 0 {
		return Alignment{}, nil
	}
	var rev []Op
	i, j := bi, bj
	for i > 0 && j > 0 && tb[idx(i, j)] != tbNone {
		switch tb[idx(i, j)] {
		case tbDiag:
			if query[i-1] == target[j-1] {
				rev = append(rev, OpMatch)
			} else {
				rev = append(rev, OpMismatch)
			}
			i--
			j--
		case tbUp:
			rev = append(rev, OpInsert)
			i--
		case tbLeft:
			rev = append(rev, OpDelete)
			j--
		}
	}
	ops := make([]Op, len(rev))
	for k := range rev {
		ops[k] = rev[len(rev)-1-k]
	}
	return Alignment{
		Hit: Hit{
			Score:       best,
			QueryStart:  i,
			QueryEnd:    bi,
			TargetStart: j,
			TargetEnd:   bj,
		},
		Ops: ops,
	}, nil
}

// Options configures a database search.
type Options struct {
	// MinScore is the minimum raw alignment score for a hit to be
	// reported.  Must be >= 1.
	MinScore int
	// Stats, when non-nil, receives work counters.
	Stats *Stats
}

// SearchDatabase runs Smith-Waterman between the query and every database
// sequence and reports the single strongest alignment per sequence whose
// score reaches MinScore, sorted by decreasing score (ties broken by
// sequence index).  This duplicates the reporting behaviour the paper uses
// for both S-W and OASIS.
func SearchDatabase(db *seq.Database, query []byte, sch score.Scheme, opts Options) ([]Hit, error) {
	if err := sch.Validate(); err != nil {
		return nil, err
	}
	if opts.MinScore < 1 {
		return nil, fmt.Errorf("align: MinScore must be >= 1, got %d", opts.MinScore)
	}
	if len(query) == 0 {
		return nil, fmt.Errorf("align: empty query")
	}
	var hits []Hit
	for i := 0; i < db.NumSequences(); i++ {
		target := db.Sequence(i).Residues
		if opts.Stats != nil {
			opts.Stats.SequencesScanned++
		}
		s := Score(query, target, sch, opts.Stats)
		if s < opts.MinScore {
			continue
		}
		hits = append(hits, Hit{SeqIndex: i, SeqID: db.Sequence(i).ID, Score: s})
	}
	SortHits(hits)
	return hits, nil
}

// AlignHit recovers the full alignment (with coordinates and operations) for
// a hit previously reported by SearchDatabase.
func AlignHit(db *seq.Database, query []byte, sch score.Scheme, h Hit) (Alignment, error) {
	if h.SeqIndex < 0 || h.SeqIndex >= db.NumSequences() {
		return Alignment{}, fmt.Errorf("align: hit sequence index %d out of range", h.SeqIndex)
	}
	a, err := Align(query, db.Sequence(h.SeqIndex).Residues, sch)
	if err != nil {
		return Alignment{}, err
	}
	a.SeqIndex = h.SeqIndex
	a.SeqID = h.SeqID
	a.EValue = h.EValue
	return a, nil
}

// SortHits orders hits by decreasing score, breaking ties by ascending
// sequence index so results are deterministic.
func SortHits(hits []Hit) {
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].SeqIndex < hits[j].SeqIndex
	})
}
