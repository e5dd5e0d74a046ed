package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/leakcheck"
	"repro/oasis"
)

// TestMain fails the binary if any test leaks a goroutine: HTTP handlers,
// batch workers waiting for a search slot, and background mutators must all
// stop with their server.
func TestMain(m *testing.M) { leakcheck.Main(m) }

// TestServeFlagConflicts: command lines that contradict themselves fail,
// naming the flag, before any database or index is opened (the paths below do
// not exist).
func TestServeFlagConflicts(t *testing.T) {
	ok := serveFlags{addr: "127.0.0.1:0", matrix: "PAM30", gap: -10, eValue: 20000, poolMB: 64}
	for _, tc := range []struct {
		name  string
		shard bool
		mod   func(*serveFlags)
		want  string
	}{
		{"negative -pool", false, func(f *serveFlags) { f.indexDir, f.poolMB = "x.idx", -1 }, "-pool must not be negative"},
		{"-shard-server negative -pool", true, func(f *serveFlags) { f.indexDir, f.poolMB = "x.idx", -1 }, "-pool must not be negative"},
		{"-shard-server -db", true, func(f *serveFlags) { f.dbPath = "x.fasta" }, "give -index-dir, not -db"},
		{"-db with -index-dir", false, func(f *serveFlags) { f.dbPath, f.indexDir = "x.fasta", "x.idx" }, "mutually exclusive"},
	} {
		f := ok
		tc.mod(&f)
		var err error
		if tc.shard {
			err = runShardServer(f)
		} else {
			err = run(f)
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestServerKeepsNoReplies: after a few hundred distinct full-stream
// searches, a server's heap holds its index and nothing of the replies it
// streamed.  It checks the engine buildEngine assembles from the default
// flags, and one built with the deprecated CacheBytes, which retains nothing
// either.  Each search streams hundreds of hits, so keeping the streams would
// grow the heap by megabytes.
func TestServerKeepsNoReplies(t *testing.T) {
	const (
		sequences = 300
		queries   = 400
		bound     = 512 << 10 // heap growth allowed over all queries, bytes
	)
	rng := rand.New(rand.NewSource(3))
	const letters = "ACDEFGHIKLMNPQRSTVWY"
	var fasta strings.Builder
	corpus := make([]string, sequences)
	for i := range corpus {
		b := make([]byte, 60)
		for j := range b {
			b[j] = letters[rng.Intn(len(letters))]
		}
		corpus[i] = string(b)
		fmt.Fprintf(&fasta, ">s%d\n%s\n", i, corpus[i])
	}
	path := filepath.Join(t.TempDir(), "db.fasta")
	if err := os.WriteFile(path, []byte(fasta.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	f := serveFlags{dbPath: path, alphabet: "protein", matrix: "PAM30", gap: -10, eValue: 20000, poolMB: 64}
	served, _, err := buildEngine(f)
	if err != nil {
		t.Fatal(err)
	}
	defer served.Close()
	db, err := loadSource(f)
	if err != nil {
		t.Fatal(err)
	}
	deprecated, err := oasis.NewEngine(db, oasis.EngineOptions{CacheBytes: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer deprecated.Close()
	scheme, err := oasis.NewScheme(oasis.MatrixByName("PAM30"), -10)
	if err != nil {
		t.Fatal(err)
	}
	// Distinct queries: 12-residue windows of the corpus, each at most once.
	qs := make([][]byte, 0, queries)
	seen := map[string]bool{}
	for len(qs) < queries {
		s := corpus[rng.Intn(len(corpus))]
		at := rng.Intn(len(s) - 12)
		if w := s[at : at+12]; !seen[w] {
			seen[w] = true
			qs = append(qs, oasis.Protein.MustEncode(w))
		}
	}
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for name, eng := range map[string]*oasis.Engine{"default flags": served, "deprecated CacheBytes": deprecated} {
		search := func(q []byte) int {
			n := 0
			opts := oasis.SearchOptions{Scheme: scheme, MinScore: 12}
			if err := eng.Search(context.Background(), q, opts, func(oasis.Hit) bool { n++; return true }); err != nil {
				t.Fatal(err)
			}
			return n
		}
		// The first searches size the pooled scratch; only then is the heap
		// the index's alone.
		for _, q := range qs[:20] {
			search(q)
		}
		before := heap()
		hits := 0
		for _, q := range qs[20:] {
			hits += search(q)
		}
		grown := heap() - before
		t.Logf("%s: %d hits over %d queries, heap grew %d bytes", name, hits, len(qs)-20, grown)
		if hits < 100*(len(qs)-20) {
			t.Fatalf("%s: %d hits over %d queries: not full streams", name, hits, len(qs)-20)
		}
		if grown >= bound {
			t.Errorf("%s: heap grew %d bytes over %d distinct searches, want < %d: the server keeps replies", name, grown, len(qs)-20, bound)
		}
	}
}
