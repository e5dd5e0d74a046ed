package core

// The band kernel: one DP column per suffix-tree edge symbol.
//
// # Recurrence
//
// For edge symbol t at path depth j, cell i of the new column is the best
// local-alignment score ending at query position i and path position j:
//
//	C[j][i] = max( C[j-1][i-1] + score(q[i], t),   substitution
//	               C[j]  [i-1] + gap,              insertion (up, same column)
//	               C[j-1][i]   + gap )             deletion  (left, prev column)
//
// followed by the paper's pruning (Section 3.2): a cell dies (becomes the
// absorbing sentinel negInf) when
//
//	C[j][i] <= 0                          a fresh start elsewhere beats it
//	C[j][i] + h[i] <= maxScore            it can never beat the path's best
//	C[j][i] + h[i] <  minScore            it can never reach the threshold
//
// where h is the admissible heuristic (best possible score of the query
// remainder).  Pruning leaves a contiguous live interval [lo, hi]; every
// cell outside it is negInf and only the insertion chain immediately above
// hi can revive anything, so a column sweep needs to visit exactly
//
//	[max(lo,1), min(hi+1, m)]   then the insertion chain hi+2.. while alive.

// colResult is one column sweep's outcome, consumed by searcher.expand.
type colResult struct {
	// curLo/curHi bound the new column's live cells (curLo = m+1, curHi = -1
	// when the column died entirely).
	curLo, curHi int32
	// colBest is the column's best f = v + h[i] over live cells (negInf when
	// none): the node's new priority bound.
	colBest int32
	// maxScore carries the running path best through the column.
	maxScore int32
	// cells is how many cells the sweep visited (dead break cell included).
	cells int32
}

// negInf32 is the pruned-score sentinel in the kernel's int32 domain.
const negInf32 = int32(negInf)

// sweepColumn computes the column for edge symbol sym from prev (live cells
// [plo, phi]) into cur, applying the pruning above.  Every read of prev is
// guarded by the band bounds, so cells outside [plo, phi] are never read,
// and every add is guarded against the negInf sentinel (addScore32).  full
// (the searcher's exhaustive oracle mode) sweeps the whole column instead of
// stopping where the insertion chain above the band dies.
//
//oasis:hotpath
func sweepColumn(prev, cur []int32, prof, h []int32, width, sym, plo, phi, m int, gap, maxScore, minScore int32, full bool) colResult {
	r := colResult{curLo: int32(m + 1), curHi: -1, colBest: negInf32, maxScore: maxScore}
	if full {
		cur[0] = negInf32
	}
	upCell := negInf32
	start := plo
	if start < 1 {
		start = 1
	}
	for i := start; i <= m; i++ {
		v := negInf32
		if i-1 >= plo && i-1 <= phi {
			v = addScore32(prev[i-1], prof[(i-1)*width+sym]) // substitution
		}
		if up := addScore32(upCell, gap); up > v { // insertion: consume a query symbol
			v = up
		}
		if i <= phi { // i >= plo always holds here
			if left := addScore32(prev[i], gap); left > v { // deletion: consume a target symbol
				v = left
			}
		}
		// Alignment pruning (paper Section 3.2, cases 1-3).
		if v <= 0 || v+h[i] <= r.maxScore || v+h[i] < minScore {
			v = negInf32
		}
		cur[i] = v
		r.cells++
		upCell = v
		if v != negInf32 {
			if r.curLo > int32(m) {
				r.curLo = int32(i)
			}
			r.curHi = int32(i)
			if v > r.maxScore {
				r.maxScore = v
			}
			if v+h[i] > r.colBest {
				r.colBest = v + h[i]
			}
		} else if i > phi && !full {
			// Past the previous column's band only the insertion chain can
			// stay alive; once it dies the rest of the column is negInf and
			// need not be touched.
			break
		}
	}
	return r
}

// addScore32 adds a matrix/gap score to a cell value, keeping negInf
// absorbing.
//
//oasis:hotpath
func addScore32(v, delta int32) int32 {
	if v <= negInf32 {
		return negInf32
	}
	return v + delta
}
