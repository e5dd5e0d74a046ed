package core

import (
	"fmt"

	"repro/internal/seq"
	"repro/internal/suffixtree"
)

// MemoryIndex adapts an in-memory suffix tree (and its database) to the
// Index interface.  It is the fastest index for data sets that fit in
// memory and serves as the reference implementation the disk index is tested
// against.
//
// Internal NodeRefs are the suffix tree's own node identifiers (the root is
// always node 0), so translation between the two spaces is free; leaf
// NodeRefs are suffix start positions, exactly as for the disk index.
//
// Each tree node is one 20-byte record: edge start, depth and the parent,
// first-child and next-sibling links (int32 each).  As in the paper's §3.4
// layout, the record holds no edge end and no suffix start: VisitChildren
// passes the parent depth it is given, and a child's edge ends at
// start + depth - parentDepth, a leaf's suffix starting at
// start - parentDepth, so a child walk reads one record per child and none
// of its parent.
//
// Reporting an accepted node must enumerate every leaf below it, which for
// near-root nodes is a large fraction of the tree; walking the
// first-child/next-sibling links there costs one random node fetch per edge.
// The adapter therefore precomputes one Euler tour at construction: leafPos
// lists every leaf's suffix position in depth-first order, and each node's
// subtree owns the contiguous range leafPos[leafLo[n]:leafHi[n]], so
// LeafPositions is a linear scan of a packed array in exactly the order the
// link walk would have produced.  Positions are uint32, as on disk: the
// builders refuse a view past 2^31 symbols.
//
// At 1.34 nodes per residue (protein) the index holds 41.4 bytes of heap per
// residue beyond its database: 26.8 for the nodes, 10.7 for leafLo/leafHi
// and 4 for leafPos (TestMemoryIndexFootprint).  With 40-byte nodes (int64
// edge start, edge end and suffix start) and int64 leafPos it held 72.2.
type MemoryIndex struct {
	tree    *suffixtree.Tree
	db      *seq.Database
	textLen int64
	leafPos []uint32
	leafLo  []int32
	leafHi  []int32
}

// NewMemoryIndex builds the adapter.  The tree must have been built over the
// database.
func NewMemoryIndex(tree *suffixtree.Tree, db *seq.Database) (*MemoryIndex, error) {
	if tree == nil || db == nil {
		return nil, fmt.Errorf("core: nil tree or database")
	}
	if tree.DB() != db {
		return nil, fmt.Errorf("core: tree was not built over the supplied database")
	}
	m := &MemoryIndex{
		tree:    tree,
		db:      db,
		textLen: int64(len(tree.Text())),
		leafPos: make([]uint32, 0, tree.NumLeaves()),
		leafLo:  make([]int32, tree.NumNodes()),
		leafHi:  make([]int32, tree.NumNodes()),
	}
	m.fillLeafRanges()
	return m, nil
}

// fillLeafRanges computes the Euler tour in one depth-first pass over the
// tree's first-child/next-sibling/parent links.  It keeps no stack of its
// own, explicit or on the goroutine: a database with a long repeat has a
// tree as deep as the repeat is long.
func (m *MemoryIndex) fillLeafRanges() {
	tree, root := m.tree, m.tree.Root()
	cur := root
	for {
		m.leafLo[cur] = int32(len(m.leafPos))
		if c := tree.FirstChild(cur); c != suffixtree.NoNode {
			cur = c
			continue
		}
		if cur != root {
			m.leafPos = append(m.leafPos, uint32(tree.SuffixStart(cur)))
		}
		// Close cur and every ancestor it was the last child of, then move
		// to the next sibling.
		for {
			m.leafHi[cur] = int32(len(m.leafPos))
			if cur == root {
				return
			}
			if sib := tree.NextSibling(cur); sib != suffixtree.NoNode {
				cur = sib
				break
			}
			cur = tree.Parent(cur)
		}
	}
}

// BuildMemoryIndex constructs the suffix tree (suffixtree.Build) for the
// database and wraps it in a MemoryIndex.
func BuildMemoryIndex(db *seq.Database) (*MemoryIndex, error) {
	tree, err := suffixtree.Build(db)
	if err != nil {
		return nil, err
	}
	return NewMemoryIndex(tree, db)
}

// Tree returns the underlying suffix tree.
func (m *MemoryIndex) Tree() *suffixtree.Tree { return m.tree }

// Root implements Index.
func (m *MemoryIndex) Root() NodeRef { return InternalRef(0) }

func (m *MemoryIndex) resolve(ref NodeRef) (suffixtree.NodeID, error) {
	if ref.IsLeaf() {
		// A leaf's position is its reference; no node lookup is needed (or
		// possible: leaves are addressed by position everywhere).
		if pos := ref.LeafPos(); pos < 0 || pos >= m.textLen {
			return 0, fmt.Errorf("core: unknown leaf position %d", pos)
		}
		return 0, nil
	}
	idx := ref.InternalIndex()
	if idx < 0 || idx >= int64(m.tree.NumNodes()) {
		return 0, fmt.Errorf("core: internal node index %d out of range", idx)
	}
	id := suffixtree.NodeID(idx)
	if m.tree.IsLeaf(id) {
		return 0, fmt.Errorf("core: node %d is a leaf, not an internal node", idx)
	}
	return id, nil
}

// VisitChildren implements Index.  Each child's node record is read once,
// its edge end and suffix start derived from parentDepth (see
// suffixtree.Tree.Edge); its label is a slice of the tree's text.
//
//oasis:hotpath
func (m *MemoryIndex) VisitChildren(ref NodeRef, parentDepth int, fn func(child NodeRef, label []byte) error) error {
	id, err := m.resolve(ref)
	if err != nil {
		return err
	}
	if ref.IsLeaf() {
		return nil // leaves have no children
	}
	var label []byte
	var suffixStart int64
	for c, next := m.tree.FirstChild(id), suffixtree.NoNode; c != suffixtree.NoNode; c = next {
		label, suffixStart, next = m.tree.Edge(c, parentDepth)
		child := InternalRef(int64(c))
		if suffixStart >= 0 {
			child = LeafRef(suffixStart)
		}
		if err := fn(child, label); err != nil {
			return err
		}
	}
	return nil
}

// LeafPositions implements Index.
//
//oasis:hotpath
func (m *MemoryIndex) LeafPositions(ref NodeRef, fn func(pos int64) bool) error {
	id, err := m.resolve(ref)
	if err != nil {
		return err
	}
	if ref.IsLeaf() {
		fn(ref.LeafPos())
		return nil
	}
	for _, pos := range m.leafPos[m.leafLo[id]:m.leafHi[id]] {
		if !fn(int64(pos)) {
			return nil
		}
	}
	return nil
}

// Catalog implements Index.
func (m *MemoryIndex) Catalog() Catalog { return dbCatalog{db: m.db} }

// dbCatalog adapts a seq.Database to the Catalog interface.
type dbCatalog struct{ db *seq.Database }

func (c dbCatalog) Alphabet() *seq.Alphabet { return c.db.Alphabet() }
func (c dbCatalog) NumSequences() int       { return c.db.NumSequences() }
func (c dbCatalog) SequenceID(i int) string { return c.db.Sequence(i).ID }
func (c dbCatalog) SequenceLength(i int) int {
	return c.db.Sequence(i).Len()
}
func (c dbCatalog) TotalResidues() int64 { return c.db.TotalResidues() }
func (c dbCatalog) Locate(pos int64) (int, error) {
	i, _, err := c.db.Locate(pos)
	return i, err
}
func (c dbCatalog) Residues(i int) ([]byte, error) {
	if i < 0 || i >= c.db.NumSequences() {
		return nil, fmt.Errorf("core: sequence index %d out of range", i)
	}
	return c.db.Sequence(i).Residues, nil
}

// NewDatabaseCatalog wraps a database in the Catalog interface; exported for
// use by other packages (e.g. baseline searchers that want uniform
// reporting).
func NewDatabaseCatalog(db *seq.Database) Catalog { return dbCatalog{db: db} }

var _ Index = (*MemoryIndex)(nil)
