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
//
// # Branch-free sweep (sweepColumnFast)
//
// The reference sweep (sweepColumnRef, the original kernel, selected by
// Options.ReferenceKernel) guards every read against the band bounds and
// guards every add against the negInf sentinel (addScore).  The fast sweep
// removes all of those per-cell branches:
//
//   - Sentinel padding: prev[lo-1] and prev[hi+1] are set to negInf once per
//     column, so the substitution and deletion reads need no bound checks —
//     out-of-band reads see the sentinel.  (The column buffers are m+2 cells
//     for the hi = m case.)
//   - Plain adds: negInf is -(1<<29), far below any live score but far above
//     the int32 minimum, so negInf + score stays hugely negative without
//     wrapping and the v <= 0 prune normalises it back to exactly negInf.
//     addScore's guard branch disappears.  newSearcher caps the heuristic
//     prefix sum (maxKernelScore) so no sum can overflow int32.
//   - The 3-way max and the prune compile to conditional moves (each branch
//     arm only assigns), not jumps.
//   - The per-column profile row profT[sym*m:] is contiguous (the profile is
//     stored transposed), so the substitution lookups walk one cache line
//     instead of striding by the alphabet width.
//
// Both sweeps visit exactly the same cells in the same order and count them
// identically (CellsComputed, ColumnsExpanded, MaxBandWidth and the band
// intervals are equal cell for cell); FuzzKernelEquivalence locks this down.

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

// negInf32 is the pruned-score sentinel in the kernels' int32 domain.
const negInf32 = int32(negInf)

// sweepColumnRef is the original scalar column sweep, kept verbatim as the
// reference kernel (Options.ReferenceKernel) for differential testing and
// ablation: band-bound guards on every read, addScore sentinel guards on
// every add, branchy bookkeeping.
//
//oasis:hotpath
func sweepColumnRef(prev, cur []int32, prof, h []int32, width, sym, plo, phi, m int, gap, maxScore, minScore int32, full bool) colResult {
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
// absorbing (reference kernel only; the fast kernel uses plain adds).
//
//oasis:hotpath
func addScore32(v, delta int32) int32 {
	if v <= negInf32 {
		return negInf32
	}
	return v + delta
}

// sweepEdgeFast status codes.
const (
	sweepAlive  = iota // every symbol consumed; the node is still viable
	sweepClosed        // maxScore >= the column's best f: the subtree closed out
	sweepDead          // the column's best f < minScore: unviable
)

// edgeResult is one sweepEdgeFast outcome, consumed by searcher.expandFast.
type edgeResult struct {
	// cells counts visited cells; columns how many symbols were consumed
	// (the stopping column included, a terminator excluded).
	cells   int64
	columns int32
	// plo/phi bound the final column's live cells (sweepAlive only).
	plo, phi int32
	// maxScore carries the running path best through the swept columns.
	maxScore int32
	// colBest is the final column's best f over live cells: the node's new
	// priority bound while it stays viable (negInf if columns == 0).
	colBest int32
	// status is sweepAlive, sweepClosed or sweepDead.
	status int32
	// terminator reports that a sequence terminator stopped the edge.
	terminator bool
	// swapped reports whether the final column's cells ended up in the
	// caller's cur buffer (odd number of completed columns).
	swapped bool
}

// sweepEdgeFast is the branch-free kernel: it sweeps one column per symbol
// of syms (an edge label, or a stretch of one cut at the cancellation poll),
// stopping early when the node closes out (sweepClosed), dies (sweepDead) or
// a terminator symbol is reached.  Moving the per-column loop into the
// kernel amortises the call and bookkeeping overhead that dominates at the
// workload's typical ~3-cell band width.  See the package comment above for
// the per-column derivation; profT is the transposed profile
// (profT[sym*m + i-1] scores query position i).
func sweepEdgeFast(prev, cur, profT, h []int32, width int, syms []byte, plo, phi, m int, gap, maxScore, minScore int32, full bool) edgeResult {
	r := edgeResult{maxScore: maxScore, colBest: negInf32}
	for ci := 0; ci < len(syms); ci++ {
		sym := int(syms[ci])
		if sym >= width {
			r.terminator = true
			break
		}
		profCol := profT[sym*m : sym*m+m]
		if full {
			cur[0] = negInf32
		}
		// Sentinel padding: out-of-band reads below resolve to negInf without
		// per-cell bound checks.  prev has m+2 cells, so phi+1 is valid.
		if plo > 0 {
			prev[plo-1] = negInf32
		}
		prev[phi+1] = negInf32
		start := plo
		if start < 1 {
			start = 1
		}
		// The always-visited range of the reference sweep: it never breaks at
		// i <= phi and always computes (and counts) the dead break cell phi+1.
		end := phi + 1
		if end > m {
			end = m
		}
		r.cells += int64(end - start + 1)
		colBest := negInf32
		upCell := negInf32
		curLo := int32(m + 1)
		curHi := int32(-1)
		_ = prev[end] // hoist the bound check: reads below stay <= end <= phi+1
		for i := start; i <= end; i++ {
			v := prev[i-1] + profCol[i-1]
			if left := prev[i] + gap; left > v {
				v = left
			}
			if up := upCell + gap; up > v {
				v = up
			}
			f := v + h[i]
			if v <= 0 || f <= r.maxScore || f < minScore {
				v = negInf32
			}
			cur[i] = v
			upCell = v
			if v != negInf32 {
				if curLo > int32(m) {
					curLo = int32(i)
				}
				curHi = int32(i)
				if v > r.maxScore {
					r.maxScore = v
				}
				if f > colBest {
					colBest = f
				}
			}
		}
		// Insertion-chain tail: past phi+1 only the chain above the band can
		// be alive.  Entered exactly when the reference sweep would not have
		// broken at phi+1 (full-sweep columns have end = phi = m; never taken).
		if end == phi+1 && upCell != negInf32 {
			for i := end + 1; i <= m; i++ {
				v := upCell + gap
				f := v + h[i]
				if v <= 0 || f <= r.maxScore || f < minScore {
					v = negInf32
				}
				cur[i] = v
				upCell = v
				r.cells++
				if v == negInf32 {
					break
				}
				curHi = int32(i)
				if curLo > int32(m) {
					curLo = int32(i)
				}
				if v > r.maxScore {
					r.maxScore = v
				}
				if f > colBest {
					colBest = f
				}
			}
		}
		r.columns++
		r.colBest = colBest
		// Accept / prune decisions, exactly as the reference path makes them
		// after each column.
		if r.maxScore >= colBest {
			r.status = sweepClosed
			return r
		}
		if colBest < minScore {
			r.status = sweepDead
			return r
		}
		prev, cur = cur, prev
		r.swapped = !r.swapped
		plo, phi = int(curLo), int(curHi)
		if full {
			plo, phi = 0, m
		}
	}
	r.status = sweepAlive
	r.plo, r.phi = int32(plo), int32(phi)
	return r
}
