// Package core implements the OASIS search algorithm: an A* (best-first)
// dynamic-programming search for local alignments, driven by a generalized
// suffix tree over the sequence database (paper Section 3).
//
// The search operates over the Index interface, which is implemented both by
// an in-memory suffix tree (MemoryIndex, backed by internal/suffixtree) and
// by the disk-resident representation read through a buffer pool
// (internal/diskst).
package core

import (
	"repro/internal/seq"
)

// NodeRef identifies a node of a suffix-tree index.  Internal nodes are
// numbered 0..numInternal-1 (the root is 0); leaves are identified by the
// global start position of the suffix they represent, encoded as a negative
// value so the two spaces cannot collide.
type NodeRef int64

// InternalRef returns the reference of the internal node with the given
// index.
func InternalRef(index int64) NodeRef { return NodeRef(index) }

// LeafRef returns the reference of the leaf whose suffix starts at the given
// global position.
func LeafRef(pos int64) NodeRef { return NodeRef(-(pos + 1)) }

// IsLeaf reports whether the reference denotes a leaf.
func (r NodeRef) IsLeaf() bool { return r < 0 }

// LeafPos returns the suffix start position of a leaf reference.
func (r NodeRef) LeafPos() int64 { return -int64(r) - 1 }

// InternalIndex returns the index of an internal-node reference.
func (r NodeRef) InternalIndex() int64 { return int64(r) }

// Catalog describes the sequences covered by an index.  It is the metadata
// OASIS needs to map suffix positions back to sequences and to report hits.
type Catalog interface {
	// Alphabet returns the residue alphabet of the indexed sequences.
	Alphabet() *seq.Alphabet
	// NumSequences returns the number of indexed sequences.
	NumSequences() int
	// SequenceID returns the identifier of sequence i.
	SequenceID(i int) string
	// SequenceLength returns the residue count of sequence i.
	SequenceLength(i int) int
	// TotalResidues returns the total residue count across all sequences.
	TotalResidues() int64
	// Locate maps a global position in the concatenated symbol view to the
	// index of the sequence holding it.
	Locate(pos int64) (seqIndex int, err error)
	// Residues returns the encoded residues of sequence i (used to recover
	// full alignments for reported hits).
	Residues(i int) ([]byte, error)
}

// Index is the read-only view of a generalized suffix tree that drives the
// OASIS search.
//
// Edge lengths in the paper's disk layout are derived from node depths
// ("the length of the arc can be determined by subtracting the depth of the
// parent node from the depth of the incident node"), so traversal methods
// take the parent's path depth as an argument; OASIS always traverses
// top-down and therefore always knows it.
//
// A search passes the same two callbacks, bound once, to every call.  An
// implementation must not retain a callback past the call that received it,
// and should not allocate per child: the best-first loop allocates nothing
// per node.
type Index interface {
	// Root returns the reference of the root node.
	Root() NodeRef
	// VisitChildren calls fn once for every child of ref, passing the
	// child's reference and the symbols of its incoming edge (the label of
	// a leaf edge ends with the sequence terminator).  The label is a
	// slice of the symbols the index holds resident: fn must not modify
	// it, and must not keep it past the callback.  parentDepth is the
	// number of symbols on the path from the root to ref.
	VisitChildren(ref NodeRef, parentDepth int, fn func(child NodeRef, label []byte) error) error
	// LeafPositions calls fn with the suffix start position of every leaf
	// in the subtree rooted at ref, stopping early if fn returns false.
	LeafPositions(ref NodeRef, fn func(pos int64) bool) error
	// Catalog returns the sequence catalog of the index.
	Catalog() Catalog
}
