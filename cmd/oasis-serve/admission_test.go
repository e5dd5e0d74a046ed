package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/oasis"
)

// TestAdmissionQueueFull checks the per-client in-flight bound: a client with
// its bound of requests in flight gets 429, other clients are unaffected, and
// a request's count is freed when it ends, cancelled or not.
func TestAdmissionQueueFull(t *testing.T) {
	srv := faultTestServer(t, nil)
	search := func(ctx context.Context, client string) int {
		rec := httptest.NewRecorder()
		req := httptest.NewRequestWithContext(ctx, "POST", "/search", strings.NewReader(`{"query":"DKDGDGTITTKE"}`))
		req.Header.Set("X-Client-ID", client)
		srv.ServeHTTP(rec, req)
		return rec.Code
	}
	// The bound of requests of "flood" in flight.
	var releases []func()
	for i := 0; i < maxInFlightPerClient; i++ {
		_, release, err := srv.adm.acquire("flood")
		if err != nil {
			t.Fatal(err)
		}
		releases = append(releases, release)
	}
	if _, _, err := srv.adm.acquire("flood"); !errors.Is(err, errAdmissionQueueFull) {
		t.Fatalf("request past the bound got %v, want errAdmissionQueueFull", err)
	}
	if code := search(context.Background(), "flood"); code != http.StatusTooManyRequests {
		t.Fatalf("search past the bound: status %d, want 429", code)
	}
	if code := search(context.Background(), "other"); code != http.StatusOK {
		t.Fatalf("another client's search: status %d, want 200", code)
	}
	releases[0]()
	if code := search(context.Background(), "flood"); code != http.StatusOK {
		t.Fatalf("search after a request ended: status %d, want 200", code)
	}
	// Cancelled requests free their count too: with one place left, more of
	// them than that, one after another, are never refused.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 3; i++ {
		if code := search(ctx, "flood"); code == http.StatusTooManyRequests {
			t.Fatalf("cancelled request %d was refused: a cancelled request kept its count", i)
		}
	}
	for _, release := range releases[1:] {
		release()
	}
	if s := srv.adm.snapshot(); s.Active != 0 || s.Rejected != 2 || len(srv.adm.clients) != 0 {
		t.Fatalf("idle admission = %+v with %d clients tracked, want 0 active, 2 rejected, no clients", s, len(srv.adm.clients))
	}
}

// TestServerAdmissionAndCacheMetrics wires it together over HTTP: a cached
// engine behind admission control must expose cache hit-rate, admission
// counters, and replay identical streams for identical queries.
func TestServerAdmissionAndCacheMetrics(t *testing.T) {
	raw := map[string]string{
		"CALM_HUMAN": "ADQLTEEQIAEFKEAFSLFDKDGDGTITTKELGTVMRSLGQNPTEAELQDMINEVDADGNGTIDFPEFLTMMARKM",
		"MYG_HUMAN":  "GLSDGEWQLVLNVWGKVEADIPGHGQEVLIRLFKGHPETLEKFDKFKHLKSEDEMKASEDLKKHGATVLTALGGILKKKGHHEAEI",
	}
	var seqs []oasis.Sequence
	for id, residues := range raw {
		seqs = append(seqs, oasis.Sequence{ID: id, Residues: oasis.Protein.MustEncode(residues)})
	}
	db, err := oasis.NewDatabase(oasis.Protein, seqs)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := oasis.NewEngine(db, oasis.EngineOptions{Shards: 2, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	scheme, err := oasis.NewScheme(oasis.MatrixByName("BLOSUM62"), -8)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(eng, serverConfig{
		scheme: scheme, defaultEValue: 20000, maxBatch: 8,
	})

	// The hit lines of a replay must be byte-identical to the original
	// stream; the done event legitimately differs (elapsed time, and the
	// replay's near-zero work counters — which are the point of the cache).
	hitLines := func(body string) string {
		var hits []string
		for _, line := range strings.Split(body, "\n") {
			if strings.Contains(line, `"type":"hit"`) {
				hits = append(hits, line)
			}
		}
		return strings.Join(hits, "\n")
	}
	var bodies []string
	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/search", strings.NewReader(`{"query":"DKDGDGTITTKE"}`))
		req.Header.Set("X-Client-ID", "tester")
		srv.ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("search %d: status %d", i, rec.Code)
		}
		bodies = append(bodies, rec.Body.String())
	}
	if hitLines(bodies[0]) == "" || hitLines(bodies[0]) != hitLines(bodies[1]) {
		t.Fatalf("cached replay hit stream differs:\n%s\nvs\n%s", bodies[0], bodies[1])
	}

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var m struct {
		Engine struct {
			Cache *struct {
				Hits   int64 `json:"hits"`
				Misses int64 `json:"misses"`
			} `json:"cache"`
		} `json:"engine"`
		CacheHitRate *float64           `json:"cache_hit_rate"`
		Admission    *admissionSnapshot `json:"admission"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("bad metrics JSON %s: %v", rec.Body.String(), err)
	}
	if m.Engine.Cache == nil || m.Engine.Cache.Hits == 0 {
		t.Fatalf("metrics show no cache hit after an identical repeat: %s", rec.Body.String())
	}
	if m.CacheHitRate == nil || *m.CacheHitRate <= 0 {
		t.Fatalf("cache_hit_rate missing or zero: %s", rec.Body.String())
	}
	if m.Admission == nil || m.Admission.Admitted != 2 || m.Admission.Active != 0 {
		t.Fatalf("admission metrics = %+v, want admitted=2 active=0", m.Admission)
	}
}
