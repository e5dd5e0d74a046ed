package main

import (
	"fmt"
	"sort"

	"repro/internal/align"
	"repro/internal/seq"
)

// oracle checks streamed hit lists against exact Smith-Waterman over the
// harness's own copy of the corpus: per-sequence optimal scores, decreasing
// order, no duplicates, and for top-k the k best scores (ties by score only).
type oracle struct {
	in *inputs
	// heldOut indexes the held-out sequences by ID, for inserted sequences.
	heldOut map[string]seq.Sequence
}

func newOracle(in *inputs) *oracle {
	o := &oracle{in: in, heldOut: make(map[string]seq.Sequence, len(in.heldOut))}
	for _, s := range in.heldOut {
		o.heldOut[s.ID] = s
	}
	return o
}

// check verifies one reply.  must lists inserted sequence IDs the server had
// acknowledged before the request was sent (they have to be searched); may
// lists inserts that overlapped the request (they are allowed to appear, and
// if they do their score must still be exact).  Both are nil on read-only
// workloads.
func (o *oracle) check(r *searchReply, must, may []string) error {
	if r.err != nil {
		return r.err
	}
	if len(r.rows) != r.hits {
		return fmt.Errorf("reply kept %d rows of %d hits", len(r.rows), r.hits)
	}
	truth, err := align.SearchDatabase(o.in.base, r.q.residues, o.in.scheme, align.Options{MinScore: r.q.minScore})
	if err != nil {
		return err
	}
	want := make(map[string]int, len(truth)+len(must))
	for _, h := range truth {
		want[h.SeqID] = h.Score
	}
	for _, id := range must {
		if s := align.Score(r.q.residues, o.heldOut[id].Residues, o.in.scheme, nil); s >= r.q.minScore {
			want[id] = s
		}
	}
	optional := make(map[string]int, len(may))
	for _, id := range may {
		if s := align.Score(r.q.residues, o.heldOut[id].Residues, o.in.scheme, nil); s >= r.q.minScore {
			optional[id] = s
		}
	}
	return compareHits(r.rows, r.top, want, optional)
}

// compareHits is the comparison itself, separated so the smoke test can show
// it rejects a corrupted list.  want maps every sequence that must be found
// to its exact score; optional maps sequences that may or may not be visible.
func compareHits(rows []hitRow, top int, want, optional map[string]int) error {
	seen := make(map[string]bool, len(rows))
	gotOptional := 0
	for i, row := range rows {
		if i > 0 && row.score > rows[i-1].score {
			return fmt.Errorf("hit %d: score %d after %d", i+1, row.score, rows[i-1].score)
		}
		if seen[row.seqID] {
			return fmt.Errorf("hit %d: %s reported twice", i+1, row.seqID)
		}
		seen[row.seqID] = true
		exact, ok := want[row.seqID]
		if !ok {
			if exact, ok = optional[row.seqID]; ok {
				gotOptional++
			}
		}
		if !ok {
			return fmt.Errorf("hit %d: %s is not a qualifying sequence", i+1, row.seqID)
		}
		if row.score != exact {
			return fmt.Errorf("hit %d: %s scored %d, Smith-Waterman gives %d", i+1, row.seqID, row.score, exact)
		}
	}
	if top <= 0 {
		if missing := len(want) - (len(rows) - gotOptional); missing != 0 {
			return fmt.Errorf("%d qualifying sequences missing from the full stream", missing)
		}
		return nil
	}
	// Top-k: the stream holds min(k, qualifying) hits, and no required
	// sequence left out beats the weakest one reported.
	if len(rows) > top {
		return fmt.Errorf("top-%d stream carried %d hits", top, len(rows))
	}
	if len(rows) < top && len(rows)-gotOptional < len(want) {
		return fmt.Errorf("top-%d stream carried %d hits but %d sequences qualify", top, len(rows), len(want))
	}
	if len(rows) == 0 {
		return nil
	}
	floor := rows[len(rows)-1].score
	var beaten []string
	for id, s := range want {
		if !seen[id] && s > floor {
			beaten = append(beaten, fmt.Sprintf("%s(%d)", id, s))
		}
	}
	if len(beaten) > 0 {
		sort.Strings(beaten)
		return fmt.Errorf("top-%d ends at score %d but omits stronger %v", top, floor, beaten)
	}
	return nil
}
