package suffixtree

import (
	"fmt"

	"repro/internal/seq"
)

// OnlineBuilder holds the engine's memtable: the sequences appended so far,
// in order.  Append only checks and keeps a sequence; Snapshot builds the
// tree of everything kept with Build (SA-IS + LCP), the same construction as
// every whole-corpus tree, so each snapshot costs one rebuild of the memtable
// and equals BuildUkkonen's tree over the same sequences node for node.
//
// The returned Tree + Database pair is immutable and independent of later
// appends, so it can be searched while appends continue.  The builder itself
// is not goroutine-safe; callers serialise Append/Snapshot (the engine does
// so under its writer lock).
type OnlineBuilder struct {
	alphabet *seq.Alphabet
	seqs     []seq.Sequence
	total    int64
}

// NewOnlineBuilder returns an empty builder over the alphabet.
func NewOnlineBuilder(a *seq.Alphabet) (*OnlineBuilder, error) {
	if a == nil {
		return nil, fmt.Errorf("suffixtree: nil alphabet")
	}
	return &OnlineBuilder{alphabet: a}, nil
}

// NumSequences returns how many sequences have been appended.
func (o *OnlineBuilder) NumSequences() int { return len(o.seqs) }

// TotalResidues returns the residues appended so far (excluding terminators).
func (o *OnlineBuilder) TotalResidues() int64 { return o.total }

// Append keeps one whole sequence for the next Snapshot.  A sequence with
// codes outside the alphabet is refused and leaves the builder unchanged.
func (o *OnlineBuilder) Append(s seq.Sequence) error {
	if !o.alphabet.ValidCodes(s.Residues) {
		return fmt.Errorf("suffixtree: sequence %q contains codes outside alphabet %q", s.ID, o.alphabet.Name())
	}
	o.seqs = append(o.seqs, s)
	o.total += int64(len(s.Residues))
	return nil
}

// Snapshot builds the tree of the appended sequences over a fresh Database
// of them.
func (o *OnlineBuilder) Snapshot() (*Tree, *seq.Database, error) {
	db, err := seq.NewDatabase(o.alphabet, append([]seq.Sequence(nil), o.seqs...))
	if err != nil {
		return nil, nil, err
	}
	tree, err := Build(db)
	if err != nil {
		return nil, nil, err
	}
	return tree, db, nil
}
