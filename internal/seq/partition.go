package seq

import "fmt"

// PartitionDatabase cuts db into at most nShards contiguous runs of
// sequences balanced by residue count: run k ends at the sequence boundary
// nearest k/nShards of the residues, so run k's sequences are the source's
// in order, starting where run k-1 ended.  A run's first global index is
// therefore the sum of the sequence counts before it — the one offset that
// places every piece of the corpus (base shards, delta layers, remote slices)
// in the global numbering.  Sequence residues are shared with the source, not
// copied.  The split is deterministic.
//
// Fewer than nShards runs are returned when the database has fewer sequences
// than requested; a run is never empty.
func PartitionDatabase(db *Database, nShards int) ([]*Database, error) {
	if db == nil {
		return nil, fmt.Errorf("seq: nil database")
	}
	if nShards < 1 {
		return nil, fmt.Errorf("seq: shard count must be >= 1, got %d", nShards)
	}
	n := db.NumSequences()
	if n == 0 {
		return nil, fmt.Errorf("seq: cannot partition an empty database")
	}
	nShards = min(nShards, n)
	// cum[i] is the residue count of sequences [0, i).
	cum := make([]int64, n+1)
	for i := range n {
		cum[i+1] = cum[i] + int64(db.Sequence(i).Len())
	}
	runs := make([]*Database, 0, nShards)
	lo := 0
	for k := 1; k <= nShards; k++ {
		hi := n
		if k < nShards {
			// Move the cut on while the next boundary is nearer the target,
			// leaving this run and each later one at least one sequence.
			target := cum[n] * int64(k) / int64(nShards)
			hi = lo + 1
			for hi < n-(nShards-k) && cum[hi+1]-target < target-cum[hi] {
				hi++
			}
		}
		run, err := NewDatabase(db.Alphabet(), db.Sequences()[lo:hi:hi])
		if err != nil {
			return nil, err
		}
		runs = append(runs, run)
		lo = hi
	}
	return runs, nil
}
