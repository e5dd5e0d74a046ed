package shard

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/seq"
)

// Part is one sequence-disjoint piece of the corpus — a base shard, a layer,
// a remote slice — holding a contiguous run of global sequence indexes.  Its
// place in the numbering is its position: its first sequence's global index
// is the sum of the sequence counts of the parts before it.  Catalog is nil
// for a part known only by its counts (a shard quarantined at open, a remote
// slice); its sequences count toward the totals but answer metadata lookups
// with zero values.
type Part struct {
	Catalog   core.Catalog
	Sequences int
	Residues  int64
}

// partOf is the part a catalog describes in full.
func partOf(cat core.Catalog) Part {
	return Part{Catalog: cat, Sequences: cat.NumSequences(), Residues: cat.TotalResidues()}
}

// concatCatalog lays its parts end to end: global sequence indexes, and the
// concatenated-position view (each sequence followed by its terminator), run
// through each part in order, exactly as one index over the whole corpus
// would number them.  Lookups binary-search the part table, so a catalog
// costs O(parts) to build whatever the corpus size.
type concatCatalog struct {
	alphabet *seq.Alphabet
	parts    []Part
	// firsts[i] and starts[i] are part i's first global sequence index and
	// first concatenated position; the entry after the last part holds the
	// totals.
	firsts   []int
	starts   []int64
	residues int64
}

// newCatalog returns the global catalog over parts, in order.  One part with
// a catalog is that catalog.
func newCatalog(alphabet *seq.Alphabet, parts []Part) core.Catalog {
	if len(parts) == 1 && parts[0].Catalog != nil {
		return parts[0].Catalog
	}
	c := &concatCatalog{alphabet: alphabet, parts: parts, firsts: []int{0}, starts: []int64{0}}
	for i, p := range parts {
		c.firsts = append(c.firsts, c.firsts[i]+p.Sequences)
		c.starts = append(c.starts, c.starts[i]+p.Residues+int64(p.Sequences))
		c.residues += p.Residues
	}
	return c
}

// part resolves global sequence g to its part's catalog (nil for a part with
// none, or g out of range) and g's index within the part.
func (c *concatCatalog) part(g int) (core.Catalog, int) {
	if g < 0 || g >= c.NumSequences() {
		return nil, 0
	}
	i := sort.Search(len(c.parts), func(i int) bool { return c.firsts[i+1] > g })
	return c.parts[i].Catalog, g - c.firsts[i]
}

func (c *concatCatalog) Alphabet() *seq.Alphabet { return c.alphabet }
func (c *concatCatalog) NumSequences() int       { return c.firsts[len(c.parts)] }
func (c *concatCatalog) TotalResidues() int64    { return c.residues }

func (c *concatCatalog) SequenceID(g int) string {
	if cat, i := c.part(g); cat != nil {
		return cat.SequenceID(i)
	}
	return ""
}

func (c *concatCatalog) SequenceLength(g int) int {
	if cat, i := c.part(g); cat != nil {
		return cat.SequenceLength(i)
	}
	return 0
}

func (c *concatCatalog) Residues(g int) ([]byte, error) {
	cat, i := c.part(g)
	if cat == nil {
		return nil, fmt.Errorf("shard: sequence %d unavailable (out of range, on a quarantined shard or in a remote slice)", g)
	}
	return cat.Residues(i)
}

func (c *concatCatalog) Locate(pos int64) (int, error) {
	if pos < 0 || pos >= c.starts[len(c.parts)] {
		return 0, fmt.Errorf("shard: position %d out of range", pos)
	}
	i := sort.Search(len(c.parts), func(i int) bool { return c.starts[i+1] > pos })
	if c.parts[i].Catalog == nil {
		return 0, fmt.Errorf("shard: position %d is on a quarantined shard or in a remote slice", pos)
	}
	local, err := c.parts[i].Catalog.Locate(pos - c.starts[i])
	if err != nil {
		return 0, err
	}
	return c.firsts[i] + local, nil
}

var _ core.Catalog = (*concatCatalog)(nil)
