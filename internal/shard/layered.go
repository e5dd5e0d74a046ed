package shard

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/seq"
)

// layeredCatalog is the global catalog over base + delta layers: global
// sequence indexes start with the base corpus and continue densely through
// each layer in order, matching the delta records' global maps.  Tombstoned
// sequences remain addressable (hits streamed before a delete can still
// recover alignments).
type layeredCatalog struct {
	base  core.Catalog
	baseN int
	// concat starts: base occupies [0, baseConcat); layer i occupies
	// [starts[i], starts[i]+span) in the virtual concatenated view, where
	// every sequence is followed by one terminator.
	baseConcat int64
	layers     []core.Catalog
	offsets    []int
	starts     []int64
	numSeqs    int
	totalRes   int64
	concat     int64
}

// newLayeredCatalog builds the global catalog over a base catalog plus
// layers appended in order: exactly the numbering the manifest's
// DeltaRecord.GlobalIndex maps and the engine layer's memtable use.  Only
// WithLayers calls it, once per view, in O(layers) — which is why this stays a
// second type beside unionCatalog: that one resolves ARBITRARY global maps
// through per-sequence tables built once at open, and folding the dense
// layers into it would make every publish O(corpus).
func newLayeredCatalog(base core.Catalog, layers []core.Index) core.Catalog {
	baseN, baseRes := base.NumSequences(), base.TotalResidues()
	lc := &layeredCatalog{base: base, baseN: baseN, baseConcat: baseRes + int64(baseN)}
	n, concat, total := baseN, lc.baseConcat, baseRes
	for _, x := range layers {
		cat := x.Catalog()
		lc.layers = append(lc.layers, cat)
		lc.offsets = append(lc.offsets, n)
		lc.starts = append(lc.starts, concat)
		n += cat.NumSequences()
		total += cat.TotalResidues()
		concat += cat.TotalResidues() + int64(cat.NumSequences())
	}
	lc.numSeqs, lc.totalRes, lc.concat = n, total, concat
	return lc
}

// resolve maps a global sequence index to its owning catalog and local index
// (nil when the index is out of range).
func (c *layeredCatalog) resolve(g int) (core.Catalog, int) {
	if g < 0 || g >= c.numSeqs {
		return nil, 0
	}
	if g < c.baseN {
		return c.base, g
	}
	for i := len(c.layers) - 1; i >= 0; i-- {
		if g >= c.offsets[i] {
			return c.layers[i], g - c.offsets[i]
		}
	}
	return nil, 0
}

func (c *layeredCatalog) Alphabet() *seq.Alphabet { return c.base.Alphabet() }
func (c *layeredCatalog) NumSequences() int       { return c.numSeqs }
func (c *layeredCatalog) TotalResidues() int64    { return c.totalRes }

func (c *layeredCatalog) SequenceID(g int) string {
	cat, i := c.resolve(g)
	if cat == nil {
		return ""
	}
	return cat.SequenceID(i)
}

func (c *layeredCatalog) SequenceLength(g int) int {
	cat, i := c.resolve(g)
	if cat == nil {
		return 0
	}
	return cat.SequenceLength(i)
}

func (c *layeredCatalog) Residues(g int) ([]byte, error) {
	cat, i := c.resolve(g)
	if cat == nil {
		return nil, fmt.Errorf("shard: sequence index %d unavailable", g)
	}
	return cat.Residues(i)
}

func (c *layeredCatalog) Locate(pos int64) (int, int64, error) {
	if pos < 0 || pos >= c.concat {
		return 0, 0, fmt.Errorf("shard: position %d out of range", pos)
	}
	if pos < c.baseConcat {
		return c.base.Locate(pos)
	}
	for i := len(c.layers) - 1; i >= 0; i-- {
		if pos >= c.starts[i] {
			local, off, err := c.layers[i].Locate(pos - c.starts[i])
			if err != nil {
				return 0, 0, err
			}
			return c.offsets[i] + local, off, nil
		}
	}
	return 0, 0, fmt.Errorf("shard: position %d out of range", pos)
}

var _ core.Catalog = (*layeredCatalog)(nil)
