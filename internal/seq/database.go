package seq

import "fmt"

// Database is an immutable collection of sequences over a single alphabet.
// It maintains a concatenated symbol view in which each sequence is followed
// by a Terminator byte; this view is what the suffix tree indexes and what
// the on-disk symbol array stores.
//
// Global positions refer to offsets into the concatenated view.  A position
// holding a terminator belongs to the sequence that precedes it.
type Database struct {
	alphabet *Alphabet
	seqs     []Sequence
	concat   []byte   // seq0 $ seq1 $ ... seqN-1 $
	loc      *Locator // offsets of the sequences in concat
}

// NewDatabase builds a database from sequences.  The sequence residues are
// referenced, not copied.
func NewDatabase(a *Alphabet, seqs []Sequence) (*Database, error) {
	if a == nil {
		return nil, fmt.Errorf("seq: nil alphabet")
	}
	db := &Database{alphabet: a, seqs: seqs}
	var n int64
	for _, s := range seqs {
		n += int64(len(s.Residues)) + 1
	}
	db.concat = make([]byte, 0, n)
	for i, s := range seqs {
		if !a.ValidCodes(s.Residues) {
			return nil, fmt.Errorf("seq: sequence %d (%q) contains codes outside alphabet %q", i, s.ID, a.Name())
		}
		db.concat = append(db.concat, s.Residues...)
		db.concat = append(db.concat, Terminator)
	}
	db.loc = NewLocator(len(seqs), func(i int) int64 { return int64(len(seqs[i].Residues)) })
	return db, nil
}

// MustDatabase is NewDatabase that panics on error; intended for tests.
func MustDatabase(a *Alphabet, seqs []Sequence) *Database {
	db, err := NewDatabase(a, seqs)
	if err != nil {
		panic(err)
	}
	return db
}

// DatabaseFromStrings is a convenience constructor used heavily in tests: it
// encodes each string with the alphabet and names them "seq0", "seq1", ....
func DatabaseFromStrings(a *Alphabet, residues ...string) (*Database, error) {
	seqs := make([]Sequence, 0, len(residues))
	for i, r := range residues {
		s, err := NewSequence(a, fmt.Sprintf("seq%d", i), "", r)
		if err != nil {
			return nil, err
		}
		seqs = append(seqs, s)
	}
	return NewDatabase(a, seqs)
}

// Alphabet returns the database alphabet.
func (db *Database) Alphabet() *Alphabet { return db.alphabet }

// NumSequences returns the number of sequences.
func (db *Database) NumSequences() int { return len(db.seqs) }

// Sequence returns the i-th sequence.
func (db *Database) Sequence(i int) Sequence { return db.seqs[i] }

// Sequences returns the underlying sequence slice (not a copy).
func (db *Database) Sequences() []Sequence { return db.seqs }

// TotalResidues returns the number of residues across all sequences,
// excluding terminators.
func (db *Database) TotalResidues() int64 { return db.loc.Len() - int64(len(db.seqs)) }

// Concat returns the concatenated symbol view (sequences separated by
// Terminator bytes).  The returned slice must not be modified.
func (db *Database) Concat() []byte { return db.concat }

// ConcatLen returns the length of the concatenated view including
// terminators.
func (db *Database) ConcatLen() int64 { return int64(len(db.concat)) }

// SequenceStart returns the global offset at which sequence i begins.
func (db *Database) SequenceStart(i int) int64 { return db.loc.Start(i) }

// SequenceEnd returns the global offset one past the last residue of
// sequence i (i.e. the offset of its terminator).
func (db *Database) SequenceEnd(i int) int64 {
	return db.loc.Start(i+1) - 1
}

// Locate maps a global position in the concatenated view to a sequence index
// and a local offset within that sequence.  Positions holding a terminator
// map to (i, len(seq_i)).
func (db *Database) Locate(pos int64) (seqIndex int, local int64, err error) {
	return db.loc.Locate(pos)
}

// SuffixEnd returns the global offset of the terminator that ends the
// sequence containing pos; the suffix starting at pos spans [pos, SuffixEnd).
func (db *Database) SuffixEnd(pos int64) int64 {
	i, _, err := db.Locate(pos)
	if err != nil {
		return pos
	}
	return db.SequenceEnd(i)
}

// Lookup returns the index of the sequence with the given ID, or -1.
func (db *Database) Lookup(id string) int {
	for i, s := range db.seqs {
		if s.ID == id {
			return i
		}
	}
	return -1
}

// Stats summarizes the database composition; useful for reporting and for
// deriving background residue frequencies.
type Stats struct {
	NumSequences  int
	TotalResidues int64
	MinLength     int
	MaxLength     int
	MeanLength    float64
	Frequencies   []float64 // indexed by symbol code
}

// ComputeStats scans the database and returns composition statistics.
func (db *Database) ComputeStats() Stats {
	st := Stats{
		NumSequences:  len(db.seqs),
		TotalResidues: db.TotalResidues(),
		Frequencies:   make([]float64, db.alphabet.Size()),
	}
	if len(db.seqs) == 0 {
		return st
	}
	st.MinLength = db.seqs[0].Len()
	counts := make([]int64, db.alphabet.Size())
	for _, s := range db.seqs {
		if s.Len() < st.MinLength {
			st.MinLength = s.Len()
		}
		if s.Len() > st.MaxLength {
			st.MaxLength = s.Len()
		}
		for _, c := range s.Residues {
			counts[c]++
		}
	}
	st.MeanLength = float64(st.TotalResidues) / float64(len(db.seqs))
	if st.TotalResidues > 0 {
		for i, c := range counts {
			st.Frequencies[i] = float64(c) / float64(st.TotalResidues)
		}
	}
	return st
}
