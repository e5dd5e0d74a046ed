package main

import (
	"strings"
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the binary if any test leaks a goroutine: HTTP handlers,
// batch workers waiting for a search slot, and background mutators must all
// stop with their server.
func TestMain(m *testing.M) { leakcheck.Main(m) }

// TestServeFlagConflicts: command lines that contradict themselves fail,
// naming the flag, before any database or index is opened (the paths below do
// not exist).
func TestServeFlagConflicts(t *testing.T) {
	ok := serveFlags{addr: "127.0.0.1:0", matrix: "PAM30", gap: -10, eValue: 20000, poolMB: 64, cacheMB: 32}
	for _, tc := range []struct {
		name  string
		shard bool
		mod   func(*serveFlags)
		want  string
	}{
		{"negative -cache", false, func(f *serveFlags) { f.dbPath, f.cacheMB = "x.fasta", -1 }, "-cache must not be negative"},
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
