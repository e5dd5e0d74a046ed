package shard

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/seq"
)

// unionCatalog presents the per-shard catalogs of a sequence-partitioned
// engine as one global catalog: sequence indexes are global, lookups are
// delegated to the owning shard, and the concatenated-position view is laid
// out in global sequence order (each sequence followed by its terminator),
// matching what a single index over the whole database would expose.
type unionCatalog struct {
	alphabet *seq.Alphabet
	cats     []core.Catalog
	owner    []int        // global sequence index -> shard
	local    []int        // global sequence index -> shard-local index
	loc      *seq.Locator // global concatenated view, in global sequence order
	residues int64        // TotalResidues, as the caller states it
}

// newUnionCatalog stitches the shard catalogs together under the global maps
// into a catalog of numSeqs sequences and residues residues, verifying that no
// global index is covered twice or lies outside.  A degraded engine (some
// shards quarantined at open time) passes only the surviving shards but the
// whole corpus's totals, so the global index space has holes: those entries
// keep the original global numbering but answer metadata lookups with zero
// values (owner -1), while the totals still count them.
func newUnionCatalog(shards []baseShard, numSeqs int, residues int64) (*unionCatalog, error) {
	if numSeqs == 0 {
		return nil, fmt.Errorf("shard: index set covers no sequences")
	}
	u := &unionCatalog{
		cats:     make([]core.Catalog, len(shards)),
		owner:    make([]int, numSeqs),
		local:    make([]int, numSeqs),
		residues: residues,
	}
	for gi := range u.owner {
		u.owner[gi] = -1
	}
	for s, b := range shards {
		g := b.globals
		u.cats[s] = b.index.Catalog()
		if u.cats[s].NumSequences() != len(g) {
			return nil, fmt.Errorf("shard %d: catalog has %d sequences, global map %d",
				s, u.cats[s].NumSequences(), len(g))
		}
		for i, gi := range g {
			if gi < 0 || gi >= numSeqs {
				return nil, fmt.Errorf("shard %d: global index %d outside [0,%d)", s, gi, numSeqs)
			}
			if u.owner[gi] >= 0 {
				return nil, fmt.Errorf("shard: global sequence %d assigned to more than one shard", gi)
			}
			u.owner[gi] = s
			u.local[gi] = i
		}
	}
	u.alphabet = u.cats[0].Alphabet()
	u.loc = seq.NewLocator(numSeqs, func(gi int) int64 { return int64(u.SequenceLength(gi)) })
	return u, nil
}

func (u *unionCatalog) Alphabet() *seq.Alphabet { return u.alphabet }
func (u *unionCatalog) NumSequences() int       { return len(u.owner) }
func (u *unionCatalog) SequenceID(i int) string {
	if u.owner[i] < 0 {
		return "" // sequence lost with a quarantined shard
	}
	return u.cats[u.owner[i]].SequenceID(u.local[i])
}
func (u *unionCatalog) SequenceLength(i int) int {
	if u.owner[i] < 0 {
		return 0
	}
	return u.cats[u.owner[i]].SequenceLength(u.local[i])
}
func (u *unionCatalog) TotalResidues() int64 { return u.residues }

func (u *unionCatalog) Locate(pos int64) (int, int64, error) { return u.loc.Locate(pos) }

func (u *unionCatalog) Residues(i int) ([]byte, error) {
	if i < 0 || i >= len(u.owner) {
		return nil, fmt.Errorf("shard: sequence index %d out of range", i)
	}
	if u.owner[i] < 0 {
		return nil, fmt.Errorf("shard: sequence %d is on a quarantined shard", i)
	}
	return u.cats[u.owner[i]].Residues(u.local[i])
}

var _ core.Catalog = (*unionCatalog)(nil)
