package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/workload"
)

// RenderFigure3 writes Figure 3 as a text table.
func RenderFigure3(w io.Writer, rows []Figure3Row) {
	fmt.Fprintln(w, "Figure 3 — mean query time vs query length (OASIS / BLAST / S-W)")
	fmt.Fprintf(w, "%-6s %-8s %-14s %-14s %-14s %-14s %-12s\n",
		"qlen", "queries", "OASIS", "OASIS(disk)", "BLAST", "S-W", "S-W/OASIS")
	for _, r := range rows {
		ratio := 0.0
		if r.OASISTime > 0 {
			ratio = float64(r.SWTime) / float64(r.OASISTime)
		}
		fmt.Fprintf(w, "%-6d %-8d %-14s %-14s %-14s %-14s %-12.1f\n",
			r.QueryLength, r.NumQueries, fmtDur(r.OASISTime), fmtDur(r.OASISDiskTime),
			fmtDur(r.BLASTTime), fmtDur(r.SWTime), ratio)
	}
	fmt.Fprintln(w)
}

// RenderFigure4 writes Figure 4 as a text table.
func RenderFigure4(w io.Writer, rows []Figure4Row) {
	fmt.Fprintln(w, "Figure 4 — columns expanded vs query length (OASIS / S-W)")
	fmt.Fprintf(w, "%-10s %-8s %-16s %-16s %-10s\n", "qlen", "queries", "OASIS cols", "S-W cols", "fraction")
	var sumO, sumS float64
	for _, r := range rows {
		fmt.Fprintf(w, "%-10d %-8d %-16.0f %-16.0f %-10.4f\n",
			r.QueryLength, r.NumQueries, r.OASISColumns, r.SWColumns, r.Fraction)
		sumO += r.OASISColumns * float64(r.NumQueries)
		sumS += r.SWColumns * float64(r.NumQueries)
	}
	if sumS > 0 {
		fmt.Fprintf(w, "overall fraction of S-W columns expanded by OASIS: %.4f\n", sumO/sumS)
	}
	fmt.Fprintln(w)
}

// RenderFigure5 writes Figure 5 as a text table.
func RenderFigure5(w io.Writer, rows []Figure5Row) {
	fmt.Fprintln(w, "Figure 5 — additional matches returned by OASIS relative to BLAST")
	fmt.Fprintf(w, "%-10s %-8s %-14s %-14s %-12s\n", "qlen", "queries", "OASIS hits", "BLAST hits", "additional%")
	var sumO, sumB float64
	for _, r := range rows {
		fmt.Fprintf(w, "%-10d %-8d %-14.1f %-14.1f %-12.1f\n",
			r.QueryLength, r.NumQueries, r.OASISMatches, r.BLASTMatches, r.AdditionalPct)
		sumO += r.OASISMatches * float64(r.NumQueries)
		sumB += r.BLASTMatches * float64(r.NumQueries)
	}
	if sumB > 0 {
		fmt.Fprintf(w, "overall additional matches: %.1f%%\n", 100*(sumO-sumB)/sumB)
	}
	fmt.Fprintln(w)
}

// RenderFigure6 writes Figure 6 as a text table.
func RenderFigure6(w io.Writer, rows []Figure6Row, eLarge float64) {
	fmt.Fprintf(w, "Figure 6 — effect of selectivity (E=1 vs E=%g)\n", eLarge)
	fmt.Fprintf(w, "%-10s %-8s %-14s %-14s %-12s %-12s\n", "qlen", "queries", "time E=1", "time E=large", "hits E=1", "hits E=large")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10d %-8d %-14s %-14s %-12.1f %-12.1f\n",
			r.QueryLength, r.NumQueries, fmtDur(r.TimeE1), fmtDur(r.TimeELarge), r.HitsE1, r.HitsELarge)
	}
	fmt.Fprintln(w)
}

// RenderFigure7 writes Figure 7 as a text table.
func RenderFigure7(w io.Writer, rows []Figure7Row) {
	fmt.Fprintln(w, "Figure 7 — mean query time vs buffer pool size")
	fmt.Fprintf(w, "%-14s %-14s %-14s\n", "pool bytes", "pool/index", "mean time")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14d %-14.3f %-14s\n", r.PoolBytes, r.PoolFraction, fmtDur(r.MeanQueryTime))
	}
	fmt.Fprintln(w)
}

// RenderFigure8 writes Figure 8 as a text table.
func RenderFigure8(w io.Writer, rows []Figure8Row) {
	fmt.Fprintln(w, "Figure 8 — buffer hit ratio per index component vs buffer pool size")
	fmt.Fprintf(w, "%-14s %-14s %-10s %-10s %-10s\n", "pool bytes", "pool/index", "symbols", "internal", "leaves")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14d %-14.3f %-10s %-10.3f %-10.3f\n",
			r.PoolBytes, r.PoolFraction, "resident", r.InternalHitRatio, r.LeafHitRatio)
	}
	fmt.Fprintln(w)
}

// RenderFigure9 writes Figure 9 as a text table (subsampled for long result
// streams).
func RenderFigure9(w io.Writer, rows []Figure9Row) {
	fmt.Fprintln(w, "Figure 9 — online behaviour: time at which each result is returned")
	fmt.Fprintf(w, "%-10s %-14s %-8s\n", "rank", "elapsed", "score")
	step := 1
	if len(rows) > 40 {
		step = len(rows) / 40
	}
	for i := 0; i < len(rows); i += step {
		r := rows[i]
		fmt.Fprintf(w, "%-10d %-14s %-8d\n", r.Rank, fmtDur(r.Elapsed), r.Score)
	}
	if len(rows) > 0 {
		last := rows[len(rows)-1]
		fmt.Fprintf(w, "total results: %d, last at %s\n", last.Rank, fmtDur(last.Elapsed))
	}
	fmt.Fprintln(w)
}

// RenderSpace writes the space-utilisation table.
func RenderSpace(w io.Writer, row SpaceRow) {
	fmt.Fprintln(w, "Space utilisation (Section 4.2 table)")
	fmt.Fprintf(w, "%-18s %-14s %-18s\n", "data set size", "index size", "bytes per symbol")
	fmt.Fprintf(w, "%-18d %-14d %-18.2f\n", row.DataSetSymbols, row.IndexBytes, row.BytesPerSymbol)
	fmt.Fprintf(w, "  symbols region:  %d bytes\n", row.SymbolsBytes)
	fmt.Fprintf(w, "  internal region: %d bytes\n", row.InternalBytes)
	fmt.Fprintf(w, "  leaf region:     %d bytes\n", row.LeafBytes)
	fmt.Fprintln(w)
}

// fmtDur renders durations with a stable precision suitable for tables.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	}
}

// Summary renders a one-paragraph description of the lab configuration.
func (l *Lab) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "workload: %d sequences, %d residues, %d queries (lengths %d-%d), matrix %s gap %d, E=%g, index %s (%.2f bytes/symbol)",
		l.DB.NumSequences(), l.DB.TotalResidues(), len(l.Queries),
		minQueryLen(l.Queries), maxQueryLen(l.Queries),
		l.Scheme.Matrix.Name(), l.Scheme.Gap, l.Config.EValue,
		l.IndexPath, l.BuildStats.BytesPerSymbol)
	return sb.String()
}

func minQueryLen(qs []workload.Query) int {
	if len(qs) == 0 {
		return 0
	}
	m := len(qs[0].Residues)
	for _, q := range qs {
		if len(q.Residues) < m {
			m = len(q.Residues)
		}
	}
	return m
}

func maxQueryLen(qs []workload.Query) int {
	m := 0
	for _, q := range qs {
		if len(q.Residues) > m {
			m = len(q.Residues)
		}
	}
	return m
}
