package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/oasis"
)

// diskTestServer builds a sharded disk index for the test database and
// serves it through a disk-backed engine (the -index-dir path of main).
func diskTestServer(t *testing.T) *server {
	t.Helper()
	raw := map[string]string{
		"CALM_HUMAN":  "ADQLTEEQIAEFKEAFSLFDKDGDGTITTKELGTVMRSLGQNPTEAELQDMINEVDADGNGTIDFPEFLTMMARKM",
		"TNNC1_HUMAN": "MDDIYKAAVEQLTEEQKNEFKAAFDIFVLGAEDGCISTKELGKVMRMLGQNPTPEELQEMIDEVDEDGSGTVDFDEFLVMMVRCM",
		"MYG_HUMAN":   "GLSDGEWQLVLNVWGKVEADIPGHGQEVLIRLFKGHPETLEKFDKFKHLKSEDEMKASEDLKKHGATVLTALGGILKKKGHHEAEI",
		"UNRELATED":   "PPPPGGGGSSSSPPPPGGGGSSSSPPPPGGGGSSSS",
	}
	var seqs []oasis.Sequence
	for id, residues := range raw {
		seqs = append(seqs, oasis.Sequence{ID: id, Residues: oasis.Protein.MustEncode(residues)})
	}
	db, err := oasis.NewDatabase(oasis.Protein, seqs)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "idx")
	if _, _, err := oasis.BuildShardedDiskIndex(dir, db, oasis.ShardedIndexBuildOptions{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	eng, err := oasis.OpenEngine(dir, oasis.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	scheme, err := oasis.NewScheme(oasis.MatrixByName("BLOSUM62"), -8)
	if err != nil {
		t.Fatal(err)
	}
	return newServer(eng, serverConfig{scheme: scheme, defaultEValue: 20000, maxBatch: 8})
}

// TestDiskBackedSearchStreams serves a query from the disk index and checks
// the stream matches the in-memory server's contract: decreasing scores, a
// final done event, and hits for the homologous sequences.
func TestDiskBackedSearchStreams(t *testing.T) {
	srv := diskTestServer(t)
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/search", strings.NewReader(`{"query":"DKDGDGTITTKE"}`))
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	events := decodeNDJSON(t, rec.Body.String())
	if len(events) < 2 {
		t.Fatalf("got %d events, want hits plus done", len(events))
	}
	last := events[len(events)-1]
	if last.Type != "done" {
		t.Fatalf("final event is %q, want done", last.Type)
	}
	prev := int(^uint(0) >> 1)
	seen := map[string]bool{}
	for _, ev := range events[:len(events)-1] {
		if ev.Type != "hit" {
			t.Fatalf("unexpected event %+v", ev)
		}
		if ev.Score > prev {
			t.Fatalf("score %d after %d", ev.Score, prev)
		}
		prev = ev.Score
		seen[ev.SeqID] = true
	}
	if !seen["CALM_HUMAN"] {
		t.Fatalf("calmodulin not reported: %v", seen)
	}
	// A disk-backed server's /healthz/ready must describe the manifest's
	// database.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz/ready", nil))
	var health map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health["sequences"].(float64) != 4 || health["shards"].(float64) != 2 {
		t.Fatalf("healthz = %v", health)
	}
}

// metricsDoc mirrors the /metrics JSON shape the doc comment promises.
type metricsDoc struct {
	Engine struct {
		Pools []struct {
			Shard    int     `json:"shard"`
			Requests int64   `json:"requests"`
			HitRatio float64 `json:"hit_ratio"`
		} `json:"pools"`
	} `json:"engine"`
	Latency map[string]latencySnapshot `json:"latency"`
}

// TestMetricsLatencyHistograms asserts the per-endpoint latency histograms:
// after one /search and one /healthz/ready request, /metrics must report one
// observation for each, with monotone cumulative buckets summing to the
// count, and the disk-backed engine must expose per-shard pool stats.
func TestMetricsLatencyHistograms(t *testing.T) {
	srv := diskTestServer(t)
	srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/search", strings.NewReader(`{"query":"DKDGDGTITTKE"}`)))
	srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/healthz/ready", nil))

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var doc metricsDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for endpoint, want := range map[string]int64{"search": 1, "healthz_ready": 1, "metrics": 0} {
		h, ok := doc.Latency[endpoint]
		if !ok {
			t.Fatalf("no latency histogram for %q: %v", endpoint, doc.Latency)
		}
		if h.Count != want {
			t.Fatalf("%s histogram counts %d requests, want %d", endpoint, h.Count, want)
		}
		if len(h.Buckets) == 0 {
			t.Fatalf("%s histogram has no buckets", endpoint)
		}
		var prev int64 = -1
		for _, b := range h.Buckets {
			if b.Count < prev {
				t.Fatalf("%s histogram buckets not cumulative: %v", endpoint, h.Buckets)
			}
			prev = b.Count
		}
		final := h.Buckets[len(h.Buckets)-1]
		if final.LeMs != -1 || final.Count != h.Count {
			t.Fatalf("%s +Inf bucket is %+v, want count %d", endpoint, final, h.Count)
		}
		if want > 0 && (h.SumMs < 0 || h.MeanMs < 0 || h.MaxMs < h.MeanMs) {
			t.Fatalf("%s histogram summary inconsistent: %+v", endpoint, h)
		}
	}
	if len(doc.Engine.Pools) != 2 {
		t.Fatalf("disk-backed metrics expose %d pools, want 2", len(doc.Engine.Pools))
	}
	var requests int64
	for _, p := range doc.Engine.Pools {
		requests += p.Requests
	}
	if requests == 0 {
		t.Fatal("pools saw no requests after a search")
	}
}

// TestIndexDirRefusesPrefixDirectory: oasis-serve -index-dir, as a server and
// as a shard server, refuses to start over a directory an older build wrote
// with prefix partitioning, naming the rebuild.
func TestIndexDirRefusesPrefixDirectory(t *testing.T) {
	db, err := oasis.NewDatabase(oasis.Protein, []oasis.Sequence{
		{ID: "A", Residues: oasis.Protein.MustEncode("DKDGDGCITTKEL")},
		{ID: "B", Residues: oasis.Protein.MustEncode("ACDEFGHIKLMNPQRSTVWY")},
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "idx")
	if _, _, err := oasis.BuildShardedDiskIndex(dir, db, oasis.ShardedIndexBuildOptions{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, "manifest.json")
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifest, bytes.Replace(data, []byte(`"sequence"`), []byte(`"prefix"`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	f := serveFlags{addr: "127.0.0.1:0", indexDir: dir, poolMB: 1, matrix: "PAM30", gap: -10, eValue: 20000}
	const want = "rebuild the index with oasis-build -shards 2"
	if err := run(f); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("-index-dir: %v, want an error containing %q", err, want)
	}
	if err := runShardServer(f); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("-shard-server -index-dir: %v, want an error containing %q", err, want)
	}
}
