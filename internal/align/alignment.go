// Package align implements the Smith-Waterman exact local-alignment
// algorithm (the accurate baseline the paper compares OASIS against),
// including full traceback, per-sequence database search with a score
// threshold, and the column-count instrumentation used by Figure 4.
package align

import (
	"fmt"
	"strings"

	"repro/internal/seq"
)

// Op is a single local-alignment operation.
type Op byte

const (
	// OpMatch aligns a query residue with an identical target residue.
	OpMatch Op = 'M'
	// OpMismatch aligns a query residue with a different target residue.
	OpMismatch Op = 'X'
	// OpInsert consumes a query residue against a gap in the target
	// (label 4 in the paper's Figure 1).
	OpInsert Op = 'I'
	// OpDelete consumes a target residue against a gap in the query
	// (label 3 in the paper's Figure 1).
	OpDelete Op = 'D'
)

// Hit describes one local alignment between a query and a database
// sequence.  Coordinates are zero-based and end-exclusive.
type Hit struct {
	// SeqIndex is the index of the target sequence in the database.
	SeqIndex int
	// SeqID is the identifier of the target sequence.
	SeqID string
	// Score is the raw alignment score.
	Score int
	// QueryStart/QueryEnd delimit the aligned query region.
	QueryStart, QueryEnd int
	// TargetStart/TargetEnd delimit the aligned region within the target
	// sequence (local coordinates).
	TargetStart, TargetEnd int
	// EValue is the expectation value of an alignment recovered for a hit
	// that carried one (an OASIS hit searched with E-value statistics),
	// otherwise 0.
	EValue float64
}

// Alignment is a hit plus the operation-level traceback.
type Alignment struct {
	Hit
	// Ops lists the alignment operations from the start of the aligned
	// region to its end.
	Ops []Op
}

// Identity returns the fraction of aligned columns that are exact matches.
func (a Alignment) Identity() float64 {
	if len(a.Ops) == 0 {
		return 0
	}
	matches := 0
	for _, op := range a.Ops {
		if op == OpMatch {
			matches++
		}
	}
	return float64(matches) / float64(len(a.Ops))
}

// CIGAR renders the operations as a compact CIGAR-like string, e.g.
// "5M1X2I3M".
func (a Alignment) CIGAR() string {
	if len(a.Ops) == 0 {
		return ""
	}
	var sb strings.Builder
	run := 1
	for i := 1; i <= len(a.Ops); i++ {
		if i < len(a.Ops) && a.Ops[i] == a.Ops[i-1] {
			run++
			continue
		}
		fmt.Fprintf(&sb, "%d%c", run, a.Ops[i-1])
		run = 1
	}
	return sb.String()
}

// Format renders the alignment as the familiar three-line text block
// (query / midline / target) given the decoded residue strings of the full
// query and target sequences.
func (a Alignment) Format(alpha *seq.Alphabet, query, target []byte) string {
	var qLine, mLine, tLine strings.Builder
	qi, ti := a.QueryStart, a.TargetStart
	for _, op := range a.Ops {
		switch op {
		case OpMatch, OpMismatch:
			qLine.WriteByte(alpha.Letter(query[qi]))
			tLine.WriteByte(alpha.Letter(target[ti]))
			if op == OpMatch {
				mLine.WriteByte('|')
			} else {
				mLine.WriteByte(' ')
			}
			qi++
			ti++
		case OpInsert:
			qLine.WriteByte(alpha.Letter(query[qi]))
			tLine.WriteByte('-')
			mLine.WriteByte(' ')
			qi++
		case OpDelete:
			qLine.WriteByte('-')
			tLine.WriteByte(alpha.Letter(target[ti]))
			mLine.WriteByte(' ')
			ti++
		}
	}
	return fmt.Sprintf("Query  %4d %s %d\n            %s\nTarget %4d %s %d\n",
		a.QueryStart+1, qLine.String(), a.QueryEnd,
		mLine.String(),
		a.TargetStart+1, tLine.String(), a.TargetEnd)
}

// Validate checks internal consistency of the alignment against the query
// and target lengths: coordinates in range and operation counts consistent
// with the aligned spans.  It is used by property tests.
func (a Alignment) Validate(queryLen, targetLen int) error {
	if a.QueryStart < 0 || a.QueryEnd > queryLen || a.QueryStart > a.QueryEnd {
		return fmt.Errorf("align: bad query span [%d,%d) for length %d", a.QueryStart, a.QueryEnd, queryLen)
	}
	if a.TargetStart < 0 || a.TargetEnd > targetLen || a.TargetStart > a.TargetEnd {
		return fmt.Errorf("align: bad target span [%d,%d) for length %d", a.TargetStart, a.TargetEnd, targetLen)
	}
	var q, t int
	for _, op := range a.Ops {
		switch op {
		case OpMatch, OpMismatch:
			q++
			t++
		case OpInsert:
			q++
		case OpDelete:
			t++
		default:
			return fmt.Errorf("align: unknown op %q", op)
		}
	}
	if q != a.QueryEnd-a.QueryStart {
		return fmt.Errorf("align: ops consume %d query residues, span is %d", q, a.QueryEnd-a.QueryStart)
	}
	if t != a.TargetEnd-a.TargetStart {
		return fmt.Errorf("align: ops consume %d target residues, span is %d", t, a.TargetEnd-a.TargetStart)
	}
	return nil
}

// RescoreOps recomputes the alignment score from the operations; used by
// tests to confirm that traceback and score agree.
func RescoreOps(a Alignment, query, target []byte, matrix interface {
	Score(a, b byte) int
}, gap int) int {
	s := 0
	qi, ti := a.QueryStart, a.TargetStart
	for _, op := range a.Ops {
		switch op {
		case OpMatch, OpMismatch:
			s += matrix.Score(query[qi], target[ti])
			qi++
			ti++
		case OpInsert:
			s += gap
			qi++
		case OpDelete:
			s += gap
			ti++
		}
	}
	return s
}
