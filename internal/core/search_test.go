package core

import (
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/align"
	"repro/internal/score"
	"repro/internal/seq"
)

var unitScheme = score.MustScheme(score.UnitDNA(), -1)

func memIndex(t *testing.T, db *seq.Database) *MemoryIndex {
	t.Helper()
	idx, err := BuildMemoryIndex(db)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func TestPaperRunningExample(t *testing.T) {
	// Paper Section 3.3: query TACG against AGTACGCCTAG with the unit
	// matrix and minScore 1 finds the maximum local alignment with score 4.
	db, err := seq.DatabaseFromStrings(seq.DNA, "AGTACGCCTAG")
	if err != nil {
		t.Fatal(err)
	}
	idx := memIndex(t, db)
	q := seq.DNA.MustEncode("TACG")
	hits, err := SearchAll(idx, q, Options{Scheme: unitScheme, MinScore: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 {
		t.Fatalf("got %d hits, want 1", len(hits))
	}
	h := hits[0]
	if h.Score != 4 || h.SeqIndex != 0 || h.SeqID != "seq0" || h.Rank != 1 {
		t.Fatalf("hit = %+v", h)
	}
}

func TestHeuristicVector(t *testing.T) {
	q := seq.DNA.MustEncode("TACG")
	h := HeuristicVector(q, score.UnitDNA())
	want := []int{4, 3, 2, 1, 0}
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("H = %v, want %v", h, want)
		}
	}
	// A matrix with negative diagonal for a symbol contributes zero, never
	// a negative amount (the heuristic must stay admissible).
	neg := score.MatchMismatch("neg", seq.DNA, 2, -1)
	qn := seq.DNA.MustEncode("NN") // N never matches positively
	hn := HeuristicVector(qn, neg)
	if hn[0] != 0 || hn[1] != 0 || hn[2] != 0 {
		t.Fatalf("H(NN) = %v, want zeros", hn)
	}
}

// swBestPerSequence computes, with plain Smith-Waterman, the optimal score
// for every database sequence, keeping those >= minScore.
func swBestPerSequence(db *seq.Database, q []byte, sch score.Scheme, minScore int) map[int]int {
	out := map[int]int{}
	for i := 0; i < db.NumSequences(); i++ {
		s := align.Score(q, db.Sequence(i).Residues, sch, nil)
		if s >= minScore {
			out[i] = s
		}
	}
	return out
}

func checkAgainstSW(t *testing.T, db *seq.Database, idx Index, q []byte, sch score.Scheme, minScore int) {
	t.Helper()
	hits, err := SearchAll(idx, q, Options{Scheme: sch, MinScore: minScore})
	if err != nil {
		t.Fatal(err)
	}
	want := swBestPerSequence(db, q, sch, minScore)
	got := map[int]int{}
	prevScore := int(^uint(0) >> 1)
	for _, h := range hits {
		if _, dup := got[h.SeqIndex]; dup {
			t.Fatalf("sequence %d reported twice", h.SeqIndex)
		}
		got[h.SeqIndex] = h.Score
		if h.Score > prevScore {
			t.Fatalf("hits not in decreasing score order: %d after %d", h.Score, prevScore)
		}
		prevScore = h.Score
	}
	if len(got) != len(want) {
		t.Fatalf("OASIS reported %d sequences, S-W found %d (query %v minScore %d)\n got: %v\nwant: %v",
			len(got), len(want), q, minScore, got, want)
	}
	for i, s := range want {
		if got[i] != s {
			t.Fatalf("sequence %d: OASIS score %d, S-W score %d", i, got[i], s)
		}
	}
}

func TestOASISMatchesSmithWatermanDNA(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		nSeq := 1 + rng.Intn(6)
		var strsCase []string
		for i := 0; i < nSeq; i++ {
			strsCase = append(strsCase, randomDNAString(rng, 5+rng.Intn(80)))
		}
		db, err := seq.DatabaseFromStrings(seq.DNA, strsCase...)
		if err != nil {
			t.Fatal(err)
		}
		idx := memIndex(t, db)
		for qi := 0; qi < 4; qi++ {
			qLen := 3 + rng.Intn(12)
			var q []byte
			if rng.Intn(2) == 0 {
				// Plant the query inside a database sequence so strong hits exist.
				si := rng.Intn(nSeq)
				res := db.Sequence(si).Residues
				if len(res) > qLen {
					start := rng.Intn(len(res) - qLen)
					q = append([]byte(nil), res[start:start+qLen]...)
					// Mutate one position.
					q[rng.Intn(len(q))] = byte(rng.Intn(4))
				}
			}
			if q == nil {
				q = seq.DNA.MustEncode(randomDNAString(rng, qLen))
			}
			for _, gap := range []int{-1, -2} {
				sch := score.MustScheme(score.UnitDNA(), gap)
				for _, minScore := range []int{1, 2, 4} {
					checkAgainstSW(t, db, idx, q, sch, minScore)
				}
			}
		}
	}
}

func TestOASISMatchesSmithWatermanProtein(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 10; trial++ {
		var strsCase []string
		for i := 0; i < 1+rng.Intn(5); i++ {
			strsCase = append(strsCase, randomProteinString(rng, 10+rng.Intn(120)))
		}
		db, err := seq.DatabaseFromStrings(seq.Protein, strsCase...)
		if err != nil {
			t.Fatal(err)
		}
		idx := memIndex(t, db)
		for qi := 0; qi < 3; qi++ {
			si := rng.Intn(db.NumSequences())
			res := db.Sequence(si).Residues
			qLen := 6 + rng.Intn(10)
			if qLen > len(res) {
				qLen = len(res)
			}
			start := rng.Intn(len(res) - qLen + 1)
			q := append([]byte(nil), res[start:start+qLen]...)
			if len(q) > 2 {
				q[rng.Intn(len(q))] = byte(rng.Intn(20))
			}
			for _, mtx := range []*score.Matrix{score.BLOSUM62(), score.PAM30()} {
				sch := score.MustScheme(mtx, -8)
				for _, minScore := range []int{5, 15, 30} {
					checkAgainstSW(t, db, idx, q, sch, minScore)
				}
			}
		}
	}
}

func TestOnlineOrderIsDescending(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var strsCase []string
	base := randomDNAString(rng, 30)
	for i := 0; i < 20; i++ {
		// Sequences share a common core so many of them match the query
		// with varying strength.
		strsCase = append(strsCase, randomDNAString(rng, rng.Intn(20))+base[:10+rng.Intn(20)]+randomDNAString(rng, rng.Intn(20)))
	}
	db, err := seq.DatabaseFromStrings(seq.DNA, strsCase...)
	if err != nil {
		t.Fatal(err)
	}
	idx := memIndex(t, db)
	q := seq.DNA.MustEncode(base[:15])
	var scores []int
	err = Search(idx, q, Options{Scheme: unitScheme, MinScore: 2}, func(h Hit) bool {
		scores = append(scores, h.Score)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) == 0 {
		t.Fatal("expected hits")
	}
	for i := 1; i < len(scores); i++ {
		if scores[i] > scores[i-1] {
			t.Fatalf("scores not descending: %v", scores)
		}
	}
}

func TestMaxResultsAndCancellation(t *testing.T) {
	db, err := seq.DatabaseFromStrings(seq.DNA, "TACGAA", "TTACG", "GGTACG", "TACG", "CCCC")
	if err != nil {
		t.Fatal(err)
	}
	idx := memIndex(t, db)
	q := seq.DNA.MustEncode("TACG")

	hits, err := SearchAll(idx, q, Options{Scheme: unitScheme, MinScore: 1, MaxResults: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Fatalf("MaxResults: got %d hits", len(hits))
	}

	count := 0
	err = Search(idx, q, Options{Scheme: unitScheme, MinScore: 1}, func(h Hit) bool {
		count++
		return false // cancel immediately
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("cancellation: callback called %d times", count)
	}
}

func TestMinScoreUnreachableReturnsNothing(t *testing.T) {
	db, _ := seq.DatabaseFromStrings(seq.DNA, "ACGTACGT")
	idx := memIndex(t, db)
	q := seq.DNA.MustEncode("ACG")
	// Maximum possible score is 3; ask for 10.
	hits, err := SearchAll(idx, q, Options{Scheme: unitScheme, MinScore: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 0 {
		t.Fatalf("expected no hits, got %+v", hits)
	}
}

func TestSearchValidation(t *testing.T) {
	db, _ := seq.DatabaseFromStrings(seq.DNA, "ACGT")
	idx := memIndex(t, db)
	q := seq.DNA.MustEncode("ACG")
	if _, err := SearchAll(nil, q, Options{Scheme: unitScheme, MinScore: 1}); err == nil {
		t.Fatal("expected error for nil index")
	}
	if _, err := SearchAll(idx, nil, Options{Scheme: unitScheme, MinScore: 1}); err == nil {
		t.Fatal("expected error for empty query")
	}
	if _, err := SearchAll(idx, q, Options{Scheme: unitScheme, MinScore: 0}); err == nil {
		t.Fatal("expected error for MinScore 0")
	}
	if _, err := SearchAll(idx, q, Options{MinScore: 1}); err == nil {
		t.Fatal("expected error for missing scheme")
	}
	// Protein matrix against a DNA index must be rejected.
	if _, err := SearchAll(idx, q, Options{Scheme: score.MustScheme(score.BLOSUM62(), -8), MinScore: 1}); err == nil {
		t.Fatal("expected error for alphabet mismatch")
	}
	// Query containing a terminator code is invalid.
	if _, err := SearchAll(idx, []byte{0, seq.Terminator}, Options{Scheme: unitScheme, MinScore: 1}); err == nil {
		t.Fatal("expected error for invalid query codes")
	}
}

func TestStatsColumnsAreFractionOfSW(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var strsCase []string
	for i := 0; i < 30; i++ {
		strsCase = append(strsCase, randomProteinString(rng, 80+rng.Intn(80)))
	}
	db, err := seq.DatabaseFromStrings(seq.Protein, strsCase...)
	if err != nil {
		t.Fatal(err)
	}
	idx := memIndex(t, db)
	res := db.Sequence(3).Residues
	q := append([]byte(nil), res[10:26]...)
	sch := score.MustScheme(score.PAM30(), -10)

	var st Stats
	if _, err := SearchAll(idx, q, Options{Scheme: sch, MinScore: 40, Stats: &st}); err != nil {
		t.Fatal(err)
	}
	if st.ColumnsExpanded == 0 || st.NodesExpanded == 0 || st.NodesPushed == 0 {
		t.Fatalf("stats not collected: %+v", st)
	}
	// Smith-Waterman expands one column per database symbol.
	swColumns := db.TotalResidues()
	if st.ColumnsExpanded >= swColumns {
		t.Fatalf("OASIS expanded %d columns, S-W would expand %d — no filtering at all",
			st.ColumnsExpanded, swColumns)
	}
	var st2 Stats
	st2.Add(st)
	st2.Add(st)
	if st2.ColumnsExpanded != 2*st.ColumnsExpanded || st2.MaxQueueSize != st.MaxQueueSize {
		t.Fatalf("Stats.Add wrong: %+v", st2)
	}
}

func TestEValuesAttached(t *testing.T) {
	db, _ := seq.DatabaseFromStrings(seq.DNA, "AGTACGCCTAG", "TTTTTTT")
	idx := memIndex(t, db)
	q := seq.DNA.MustEncode("TACG")
	ka, err := score.Params(score.UnitDNA(), nil)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := SearchAll(idx, q, Options{Scheme: unitScheme, MinScore: 1, KA: &ka})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || hits[0].EValue <= 0 {
		t.Fatalf("expected positive E-value, got %+v", hits)
	}
}

func TestRecoverAlignment(t *testing.T) {
	db, _ := seq.DatabaseFromStrings(seq.DNA, "AGTACGCCTAG")
	idx := memIndex(t, db)
	q := seq.DNA.MustEncode("TACG")
	hits, err := SearchAll(idx, q, Options{Scheme: unitScheme, MinScore: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, err := RecoverAlignment(idx, q, unitScheme, hits[0])
	if err != nil {
		t.Fatal(err)
	}
	if a.Score != 4 || a.CIGAR() != "4M" {
		t.Fatalf("alignment = %+v %s", a.Hit, a.CIGAR())
	}
	// The optimal alignment TACG=TACG spans query positions 1-4 and target
	// positions 3-6 (1-based, inclusive: it ends at query position 4 and
	// target offset 6, 0-based exclusive).
	const span = "Query     1 TACG 4\n            ||||\nTarget    3 TACG 6\n"
	if got := a.Format(seq.DNA, q, db.Sequence(0).Residues); got != span {
		t.Fatalf("alignment span:\n%s\nwant:\n%s", got, span)
	}
	if _, err := RecoverAlignment(idx, q, unitScheme, Hit{SeqIndex: 9}); err == nil {
		t.Fatal("expected range error")
	}
	// A hit with an impossible score must be detected.
	bad := hits[0]
	bad.Score = 999
	if _, err := RecoverAlignment(idx, q, unitScheme, bad); err == nil {
		t.Fatal("expected score mismatch error")
	}
}

func TestMultiSequenceReporting(t *testing.T) {
	// Several sequences contain the query at different strengths; each must
	// be reported exactly once, with its own optimal score.
	db, err := seq.DatabaseFromStrings(seq.DNA,
		"TACGTACG",   // two exact occurrences (score 4)
		"TAGG",       // partial (score 2: TA)
		"CCCCCCCC",   // nothing
		"GGTACGGG",   // exact (score 4)
		"TTTAACGTT",  // TA-CG with gap or TAACG region
		"ACGTTTTTTT", // suffix match ACG (score 3)
	)
	if err != nil {
		t.Fatal(err)
	}
	idx := memIndex(t, db)
	q := seq.DNA.MustEncode("TACG")
	checkAgainstSW(t, db, idx, q, unitScheme, 2)
}

func TestBucketQueueOrdering(t *testing.T) {
	var q bucketQueue
	q.init(1, 9)
	q.push(5, false, 0)
	q.push(9, false, 1)
	q.push(9, true, 2)
	q.push(1, false, 3)
	q.push(7, false, 4)
	q.push(9, false, 5)
	// Highest f first; among equal f the accepted node wins, then insertion
	// order.
	for _, want := range []struct {
		id       int32
		f        int
		accepted bool
	}{{2, 9, true}, {1, 9, false}, {5, 9, false}, {4, 7, false}, {0, 5, false}, {3, 1, false}} {
		if f := q.topF(); f != want.f {
			t.Fatalf("topF = %d before popping id %d, want %d", f, want.id, want.f)
		}
		id, f, accepted := q.pop()
		if id != want.id || f != want.f || accepted != want.accepted {
			t.Fatalf("pop = (id %d, f %d, accepted %v), want %+v", id, f, accepted, want)
		}
	}
	if q.size != 0 || q.topF() != negInf {
		t.Fatal("queue not empty")
	}
}

// TestLongQueryWideScoreRange drives Search with a query whose f domain
// [MinScore, h[0]] is wider than 65,536 values — the point where searches
// used to leave the bucket queue for a separate heap, and a length the servers
// admit (10,000 residues) — and checks it against Smith-Waterman.
func TestLongQueryWideScoreRange(t *testing.T) {
	rng := rand.New(rand.NewSource(65536))
	sch := score.MustScheme(score.ByName("PAM30"), -10)
	q := seq.Protein.MustEncode(randomProteinString(rng, 9000))
	const minScore = 40
	if width := HeuristicVector(q, sch.Matrix)[0] - minScore + 1; width <= 1<<16 {
		t.Fatalf("query's score range spans %d values; the test needs more than 65,536", width)
	}
	// Fragments of the query (one mutated, one embedded in noise) give strong
	// hits far apart in score; an unrelated sequence gives none.
	frag := func(off, n int) string { return seq.Protein.Decode(q[off : off+n]) }
	mutated := []byte(frag(4000, 60))
	for i := 5; i < len(mutated); i += 9 {
		mutated[i] = 'P'
	}
	db, err := seq.DatabaseFromStrings(seq.Protein,
		frag(100, 120),
		string(mutated),
		randomProteinString(rng, 30)+frag(8000, 25)+randomProteinString(rng, 30),
		randomProteinString(rng, 50),
	)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstSW(t, db, memIndex(t, db), q, sch, minScore)
}

// TestSearchRefusesScoreRangeBeyondQueue: a query whose score range does not
// fit the priority queue is refused up front, not served from a second queue.
func TestSearchRefusesScoreRangeBeyondQueue(t *testing.T) {
	sch := score.MustScheme(score.ByName("PAM30"), -10)
	db, err := seq.DatabaseFromStrings(seq.Protein, "ACDEFGHIKLMNPQRSTVWY")
	if err != nil {
		t.Fatal(err)
	}
	q := seq.Protein.MustEncode(strings.Repeat("W", maxBucketRange/13+2))
	_, err = SearchAll(memIndex(t, db), q, Options{Scheme: sch, MinScore: 1})
	if err == nil || !strings.Contains(err.Error(), "priority queue") {
		t.Fatalf("err = %v, want the queue-capacity refusal", err)
	}
}

func TestNodeRefEncoding(t *testing.T) {
	for _, pos := range []int64{0, 1, 12345, 1 << 40} {
		r := LeafRef(pos)
		if !r.IsLeaf() || r.LeafPos() != pos {
			t.Fatalf("leaf ref round trip failed for %d", pos)
		}
	}
	for _, idx := range []int64{0, 7, 1 << 30} {
		r := InternalRef(idx)
		if r.IsLeaf() || r.InternalIndex() != idx {
			t.Fatalf("internal ref round trip failed for %d", idx)
		}
	}
}

func TestSortHits(t *testing.T) {
	hits := []Hit{{SeqIndex: 2, Score: 5}, {SeqIndex: 1, Score: 9}, {SeqIndex: 0, Score: 5}}
	SortHits(hits)
	if hits[0].Score != 9 || hits[1].SeqIndex != 0 || hits[2].SeqIndex != 2 {
		t.Fatalf("SortHits wrong: %+v", hits)
	}
}

func TestMemoryIndexErrors(t *testing.T) {
	db, _ := seq.DatabaseFromStrings(seq.DNA, "ACGT")
	other, _ := seq.DatabaseFromStrings(seq.DNA, "ACGT")
	idx := memIndex(t, db)
	if _, err := NewMemoryIndex(nil, db); err == nil {
		t.Fatal("expected error for nil tree")
	}
	if _, err := NewMemoryIndex(idx.Tree(), other); err == nil {
		t.Fatal("expected error for mismatched database")
	}
	if err := idx.VisitChildren(InternalRef(999), 0, func(NodeRef, []byte) error { return nil }); err == nil {
		t.Fatal("expected error for bad ref")
	}
	if err := idx.LeafPositions(LeafRef(999), func(int64) bool { return true }); err == nil {
		t.Fatal("expected error for bad leaf ref")
	}
	cat := idx.Catalog()
	if _, err := cat.Residues(-1); err == nil {
		t.Fatal("expected error for bad sequence index")
	}
	if NewDatabaseCatalog(db).NumSequences() != 1 {
		t.Fatal("database catalog wrong")
	}
}

// TestQueryRoundTripViaFasta smoke-tests that the search options work with a
// query file round trip.
func TestQueryRoundTripViaFasta(t *testing.T) {
	dir := t.TempDir()
	db, _ := seq.DatabaseFromStrings(seq.DNA, "AGTACGCCTAG")
	path := filepath.Join(dir, "q.fasta")
	qdb := seq.MustDatabase(seq.DNA, []seq.Sequence{{ID: "q1", Residues: seq.DNA.MustEncode("TACG")}})
	if err := seq.WriteFASTAFile(path, qdb, 60); err != nil {
		t.Fatal(err)
	}
	back, err := seq.ReadFASTAFile(path, seq.DNA)
	if err != nil {
		t.Fatal(err)
	}
	idx := memIndex(t, db)
	hits, err := SearchAll(idx, back.Sequence(0).Residues, Options{Scheme: unitScheme, MinScore: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].Score != 4 {
		t.Fatalf("round trip search failed: %+v", hits)
	}
}

func randomDNAString(rng *rand.Rand, n int) string {
	letters := "ACGT"
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[rng.Intn(4)]
	}
	return string(b)
}

func randomProteinString(rng *rand.Rand, n int) string {
	letters := "ARNDCQEGHILKMFPSTWYV"
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[rng.Intn(20)]
	}
	return string(b)
}
