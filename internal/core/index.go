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
	// Locate maps a global position in the concatenated symbol view to a
	// sequence index and a local offset within that sequence.
	Locate(pos int64) (seqIndex int, offset int64, err error)
	// Residues returns the encoded residues of sequence i (used to recover
	// full alignments for reported hits).
	Residues(i int) ([]byte, error)
}

// EdgeLabel provides lazy access to the symbols labelling a suffix-tree
// edge.  The OASIS expansion usually decides a node's fate after the first
// few symbols, so indexes avoid materialising long leaf edges: both the
// memory and the disk index hand out slices of symbols they hold resident.
type EdgeLabel interface {
	// Len returns the number of symbols on the edge (a leaf edge ends with
	// the sequence terminator, which is included in the count).
	Len() int
	// Symbols returns the symbols in [from, to).  The returned slice is
	// only valid until the next Symbols call or until the enclosing
	// VisitChildren callback returns.
	Symbols(from, to int) ([]byte, error)
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
// and should not allocate per child (reuse one label per call, as MemoryIndex
// and the disk index do): the best-first loop allocates nothing per node.
type Index interface {
	// Root returns the reference of the root node.
	Root() NodeRef
	// VisitChildren calls fn once for every child of ref, passing the
	// child's reference and its incoming edge label (the label of a leaf
	// edge ends with the sequence terminator).  The label is only valid
	// for the duration of the callback and may be backed by storage that
	// is reused between callbacks.  parentDepth is the number of symbols
	// on the path from the root to ref.
	VisitChildren(ref NodeRef, parentDepth int, fn func(child NodeRef, label EdgeLabel) error) error
	// LeafPositions calls fn with the suffix start position of every leaf
	// in the subtree rooted at ref, stopping early if fn returns false.
	LeafPositions(ref NodeRef, fn func(pos int64) bool) error
	// Catalog returns the sequence catalog of the index.
	Catalog() Catalog
}

// ByteLabel is an EdgeLabel backed by an in-memory byte slice.  Use a
// pointer when passing it through the EdgeLabel interface in hot paths so
// the conversion does not allocate.
type ByteLabel struct{ B []byte }

// Len implements EdgeLabel.
func (l *ByteLabel) Len() int { return len(l.B) }

// Symbols implements EdgeLabel.
func (l *ByteLabel) Symbols(from, to int) ([]byte, error) { return l.B[from:to], nil }

// LabelBytes materialises an entire edge label; a convenience for callers
// (tests, debugging tools) that want the full label regardless of length.
func LabelBytes(l EdgeLabel) ([]byte, error) {
	s, err := l.Symbols(0, l.Len())
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(s))
	copy(out, s)
	return out, nil
}
