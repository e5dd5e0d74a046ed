package workload

import (
	"math/rand"
	"testing"

	"repro/internal/align"
	"repro/internal/score"
	"repro/internal/seq"
)

func TestProteinDatabaseGeneration(t *testing.T) {
	cfg := DefaultProteinConfig(50_000)
	db, motifs, err := ProteinDatabase(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if db.NumSequences() != cfg.NumSequences {
		t.Fatalf("NumSequences = %d, want %d", db.NumSequences(), cfg.NumSequences)
	}
	if len(motifs) != cfg.NumFamilies {
		t.Fatalf("motifs = %d, want %d", len(motifs), cfg.NumFamilies)
	}
	st := db.ComputeStats()
	if st.MinLength < proteinMinLen {
		t.Fatalf("MinLength %d below the generator's %d", st.MinLength, proteinMinLen)
	}
	// Total residues should be in the right ballpark (within 4x).
	if st.TotalResidues < 50_000/4 || st.TotalResidues > 50_000*4 {
		t.Fatalf("TotalResidues = %d, expected ~50000", st.TotalResidues)
	}
	// Frequencies roughly match the Robinson-Robinson background: leucine
	// (L) should be the most common standard residue and tryptophan (W)
	// among the rarest.
	codeL, _ := seq.Protein.Code('L')
	codeW, _ := seq.Protein.Code('W')
	if st.Frequencies[codeL] < st.Frequencies[codeW] {
		t.Fatalf("L (%v) should be more frequent than W (%v)", st.Frequencies[codeL], st.Frequencies[codeW])
	}
	for _, m := range motifs {
		if len(m.Members) != familySize {
			t.Fatalf("motif %s has %d members, want %d", m.ID, len(m.Members), familySize)
		}
		if len(m.Residues) < motifMinLen || len(m.Residues) > motifMaxLen {
			t.Fatalf("motif %s length %d out of bounds", m.ID, len(m.Residues))
		}
	}
}

func TestProteinDatabaseDeterministic(t *testing.T) {
	cfg := DefaultProteinConfig(20_000)
	a, _, err := ProteinDatabase(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := ProteinDatabase(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalResidues() != b.TotalResidues() {
		t.Fatal("generation is not deterministic")
	}
	for i := 0; i < a.NumSequences(); i++ {
		if string(a.Sequence(i).Residues) != string(b.Sequence(i).Residues) {
			t.Fatalf("sequence %d differs between runs", i)
		}
	}
	cfg2 := cfg
	cfg2.Seed++
	c, _, err := ProteinDatabase(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < a.NumSequences() && i < c.NumSequences(); i++ {
		if string(a.Sequence(i).Residues) != string(c.Sequence(i).Residues) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical databases")
	}
}

func TestPlantedMotifsAreFindable(t *testing.T) {
	db, motifs, err := ProteinDatabase(DefaultProteinConfig(30_000))
	if err != nil {
		t.Fatal(err)
	}
	sch := score.MustScheme(score.BLOSUM62(), -8)
	// A member sequence must align to its family motif far better than a
	// random non-member does on average.
	m := motifs[0]
	if len(m.Members) == 0 {
		t.Fatal("motif has no members")
	}
	member := db.Sequence(m.Members[0]).Residues
	memberScore := align.Score(m.Residues, member, sch, nil)
	// Perfect self alignment score.
	self := align.Score(m.Residues, m.Residues, sch, nil)
	if memberScore < self/2 {
		t.Fatalf("planted copy aligns poorly: member %d vs self %d", memberScore, self)
	}
}

func TestProteinConfigValidation(t *testing.T) {
	bad := []ProteinConfig{
		{},
		{NumSequences: -1, NumFamilies: 1},
		{NumSequences: 5, NumFamilies: -1},
	}
	for i, cfg := range bad {
		if _, _, err := ProteinDatabase(cfg); err == nil {
			t.Fatalf("config %d should be rejected", i)
		}
	}
}

func TestDNADatabaseGeneration(t *testing.T) {
	cfg := DefaultDNAConfig(100_000)
	db, err := DNADatabase(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := db.ComputeStats()
	if st.TotalResidues < 100_000/4 || st.TotalResidues > 100_000*4 {
		t.Fatalf("TotalResidues = %d", st.TotalResidues)
	}
	// GC content near the configured value.
	codeC, _ := seq.DNA.Code('C')
	codeG, _ := seq.DNA.Code('G')
	gc := st.Frequencies[codeC] + st.Frequencies[codeG]
	if gc < 0.3 || gc > 0.55 {
		t.Fatalf("GC content %v far from configured 0.42", gc)
	}
	if _, err := DNADatabase(DNAConfig{}); err == nil {
		t.Fatal("invalid DNA config should be rejected")
	}
}

func TestMotifQueries(t *testing.T) {
	db, motifs, err := ProteinDatabase(DefaultProteinConfig(30_000))
	if err != nil {
		t.Fatal(err)
	}
	qcfg := DefaultQueryConfig(100)
	queries, err := MotifQueries(db, motifs, qcfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(queries) != 100 {
		t.Fatalf("got %d queries", len(queries))
	}
	var totalLen, fromMotif int
	for _, q := range queries {
		if len(q.Residues) < queryMinLen || len(q.Residues) > queryMaxLen+2 {
			t.Fatalf("query %s length %d out of bounds", q.ID, len(q.Residues))
		}
		totalLen += len(q.Residues)
		if q.SourceMotif >= 0 {
			fromMotif++
		}
		if !seq.Protein.ValidCodes(q.Residues) {
			t.Fatalf("query %s has invalid codes", q.ID)
		}
	}
	mean := float64(totalLen) / float64(len(queries))
	if mean < 10 || mean > 25 {
		t.Fatalf("mean query length %v, want ~16 (paper's ProClass workload)", mean)
	}
	if fromMotif < 60 {
		t.Fatalf("only %d/100 queries drawn from motifs", fromMotif)
	}
	// Determinism.
	again, err := MotifQueries(db, motifs, qcfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		if string(queries[i].Residues) != string(again[i].Residues) {
			t.Fatal("query generation not deterministic")
		}
	}
}

func TestMotifQueriesValidation(t *testing.T) {
	db, motifs, _ := ProteinDatabase(DefaultProteinConfig(10_000))
	if _, err := MotifQueries(nil, motifs, DefaultQueryConfig(10)); err == nil {
		t.Fatal("nil database should be rejected")
	}
	if _, err := MotifQueries(db, motifs, QueryConfig{Num: 0}); err == nil {
		t.Fatal("zero queries should be rejected")
	}
	// No motifs: all queries are background.
	qs, err := MotifQueries(db, nil, DefaultQueryConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		if q.SourceMotif != -1 {
			t.Fatal("background query tagged with a motif")
		}
	}
}

func TestSampleLengthBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sum := 0
	for i := 0; i < 2000; i++ {
		n := sampleLength(rng, 20, 7, 50)
		if n < 7 || n > 50 {
			t.Fatalf("length %d outside [7,50]", n)
		}
		sum += n
	}
	if mean := float64(sum) / 2000; mean < 15 || mean > 25 {
		t.Fatalf("mean length %v, want ~20", mean)
	}
}

func TestDefaultConfigsScale(t *testing.T) {
	small := DefaultProteinConfig(10_000)
	large := DefaultProteinConfig(1_000_000)
	if large.NumSequences <= small.NumSequences {
		t.Fatal("larger residue budget should mean more sequences")
	}
	d := DefaultDNAConfig(1_000_000)
	if d.NumSequences < 4 {
		t.Fatal("DNA config too small")
	}
}
