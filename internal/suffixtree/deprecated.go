package suffixtree

import "repro/internal/seq"

// Names the repository's benchmark still calls.  Build is the one
// construction; each name here is a thin veneer over it.

// BuildUkkonen returns Build(db).
//
// Deprecated: call Build.
func BuildUkkonen(db *seq.Database) (*Tree, error) { return Build(db) }

// OnlineBuilder keeps appended sequences; Snapshot builds their tree.
//
// Deprecated: keep the sequences and call Build over seq.NewDatabase of them.
type OnlineBuilder struct {
	alphabet *seq.Alphabet
	seqs     []seq.Sequence
}

// NewOnlineBuilder returns an empty builder over the alphabet.
//
// Deprecated: see OnlineBuilder.
func NewOnlineBuilder(a *seq.Alphabet) (*OnlineBuilder, error) {
	return &OnlineBuilder{alphabet: a}, nil
}

// Append keeps s for the next Snapshot.
//
// Deprecated: see OnlineBuilder.
func (o *OnlineBuilder) Append(s seq.Sequence) error {
	o.seqs = append(o.seqs, s)
	return nil
}

// Snapshot builds the tree of the appended sequences over a fresh Database
// of them.
//
// Deprecated: see OnlineBuilder.
func (o *OnlineBuilder) Snapshot() (*Tree, *seq.Database, error) {
	db, err := seq.NewDatabase(o.alphabet, o.seqs)
	if err != nil {
		return nil, nil, err
	}
	tree, err := Build(db)
	return tree, db, err
}
