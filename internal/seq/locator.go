package seq

import (
	"fmt"
	"math/bits"
)

// Locator maps positions of a concatenated view — every sequence followed by
// one terminator — back to (sequence, offset) in constant time.  It is the
// one position→sequence table of the repository: Database and the disk
// index's catalog resolve hit positions (and, on disk, every leaf edge's end)
// through it.
//
// The view is cut into equal power-of-two blocks, at least one per sequence;
// block[b] is the sequence holding block b's first position, and a lookup
// steps forward from there over the sequences that begin inside the block:
// fewer than one on average, and never more than fit into a mean sequence's
// length.
type Locator struct {
	starts []int64 // starts[i]: offset of sequence i; starts[n]: the view's length
	shift  uint
	block  []int32
}

// NewLocator lays out n sequences, the i-th of length(i) residues, in order.
func NewLocator(n int, length func(i int) int64) *Locator {
	l := &Locator{starts: make([]int64, n+1)}
	for i := 0; i < n; i++ {
		l.starts[i+1] = l.starts[i] + length(i) + 1
	}
	size := l.starts[n]
	// The largest block that still yields n blocks or more.
	for l.shift = uint(bits.Len64(uint64(size))); l.shift > 0 && size>>l.shift < int64(n); {
		l.shift--
	}
	l.block = make([]int32, size>>l.shift+1)
	i := 0
	for b := range l.block {
		for i+1 < n && l.starts[i+1] <= int64(b)<<l.shift {
			i++
		}
		l.block[b] = int32(i)
	}
	return l
}

// Len returns the length of the concatenated view, terminators included.
func (l *Locator) Len() int64 { return l.starts[len(l.starts)-1] }

// Start returns the offset at which sequence i begins; Start(i+1) is one past
// sequence i's terminator.
func (l *Locator) Start(i int) int64 { return l.starts[i] }

// Locate maps a position of the view to its sequence and the offset within
// it; a position holding a terminator maps to (i, length(i)).
//
//oasis:hotpath
func (l *Locator) Locate(pos int64) (seqIndex int, offset int64, err error) {
	if uint64(pos) >= uint64(l.Len()) {
		return 0, 0, l.errOutOfRange(pos)
	}
	i := int(l.block[pos>>l.shift])
	for l.starts[i+1] <= pos { // ends at starts[n], the view's length
		i++
	}
	return i, pos - l.starts[i], nil
}

// errOutOfRange is built out of line to keep Locate free of allocations.
//
//go:noinline
func (l *Locator) errOutOfRange(pos int64) error {
	return fmt.Errorf("seq: position %d out of range [0,%d)", pos, l.Len())
}
