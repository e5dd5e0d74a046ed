package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faultpoint"
	"repro/oasis"
)

// faultTestServer builds an in-memory server with the given extra config on
// top of the standard test corpus.
func faultTestServer(t *testing.T, tune func(*serverConfig)) *server {
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
	eng, err := oasis.NewEngine(db, oasis.EngineOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	scheme, err := oasis.NewScheme(oasis.MatrixByName("BLOSUM62"), -8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := serverConfig{scheme: scheme, defaultEValue: 20000, maxBatch: 8}
	if tune != nil {
		tune(&cfg)
	}
	return newServer(eng, cfg)
}

// TestQueryTimeoutErrorEvent pins -query-timeout: a stream that outlives the
// per-query budget ends with an "error" event naming the timeout, not a
// silent truncation.
func TestQueryTimeoutErrorEvent(t *testing.T) {
	srv := faultTestServer(t, func(cfg *serverConfig) {
		cfg.queryTimeout = time.Nanosecond
	})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/search", strings.NewReader(`{"query":"DKDGDGTITTKE"}`)))
	events := decodeNDJSON(t, rec.Body.String())
	if len(events) == 0 {
		t.Fatal("no events streamed")
	}
	last := events[len(events)-1]
	if last.Type != "error" {
		t.Fatalf("final event %+v, want a timeout error", last)
	}
	if !strings.Contains(last.Error, "query timeout") || !strings.Contains(last.Error, "1ns") {
		t.Fatalf("error %q does not name the query timeout", last.Error)
	}
}

// TestAdmissionWaitSheds503 pins overload shedding at one search slot: a
// request whose query waits longer than slotWait for the slot, before any of
// its events is written, is shed with 503, Retry-After and a body saying the
// server is saturated; once the slot is free the same request succeeds.
func TestAdmissionWaitSheds503(t *testing.T) {
	eng, err := oasis.NewEngine(corpusDB(t, 0, len(corpusStrings)), oasis.EngineOptions{Shards: 2, BatchWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	scheme, err := oasis.NewScheme(oasis.MatrixByName("BLOSUM62"), -8)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(eng, serverConfig{scheme: scheme, defaultEValue: 20000, slotWait: 30 * time.Millisecond})
	search := func(client string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/search", strings.NewReader(`{"query":"DKDGDGTITTKE"}`))
		req.Header.Set("X-Client-ID", client)
		srv.ServeHTTP(rec, req)
		return rec
	}
	// The hog's two shard streams sleep inside its sweep, so it holds the
	// only slot for that long.
	defer faultpoint.Reset()
	faultpoint.Enable(faultpoint.SiteShardWorker, faultpoint.Spec{Mode: faultpoint.ModeLatency, Delay: time.Second, Times: 2})
	hog := make(chan int, 1)
	go func() { hog <- search("hog").Code }()
	for faultpoint.Fired(faultpoint.SiteShardWorker) == 0 {
		time.Sleep(time.Millisecond)
	}
	rec := search("other")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", rec.Code, rec.Body.String())
	}
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
	if !strings.Contains(rec.Body.String(), "saturated") {
		t.Fatalf("error body %q does not say the server is saturated", rec.Body.String())
	}
	if code := <-hog; code != http.StatusOK {
		t.Fatalf("hog search: status %d", code)
	}
	if rec := search("other"); rec.Code != http.StatusOK {
		t.Fatalf("search once the slot is free: status %d", rec.Code)
	}
}

// TestDrainSheds503 pins graceful shutdown: after startDrain, new queries are
// shed immediately with 503 while /healthz/ready reports draining.
func TestDrainSheds503(t *testing.T) {
	srv := faultTestServer(t, nil)
	srv.startDrain()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/search", strings.NewReader(`{"query":"DKDGDGTITTKE"}`)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q", ra)
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz/ready", nil))
	var health map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusServiceUnavailable || health["reason"] != "draining" {
		t.Fatalf("healthz/ready = %d %v, want 503 draining", rec.Code, health)
	}
}

// TestServeFaultpoint500 pins the handler-level injection site used by the CI
// fault stage.
func TestServeFaultpoint500(t *testing.T) {
	defer faultpoint.Reset()
	srv := faultTestServer(t, nil)
	faultpoint.Enable(faultpoint.SiteServeSearch, faultpoint.Spec{Mode: faultpoint.ModeError, Match: "search"})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/search", strings.NewReader(`{"query":"DKDGDGTITTKE"}`)))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if faultpoint.Fired(faultpoint.SiteServeSearch) == 0 {
		t.Fatal("serve faultpoint never fired")
	}
}

// TestPrometheusExposition pins the text exposition surface: content type,
// the four fault-tolerance metrics, traffic counters and latency histograms —
// selected by ?format=prometheus or an Accept header; JSON stays the default.
func TestPrometheusExposition(t *testing.T) {
	srv := faultTestServer(t, nil)
	srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/search", strings.NewReader(`{"query":"DKDGDGTITTKE"}`)))

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=prometheus", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q, want the 0.0.4 text exposition", ct)
	}
	body := rec.Body.String()
	for _, metric := range []string{
		"degraded_queries_total",
		"shard_quarantined",
		"checksum_failures_total",
		"retries_total",
		"queries_served_total 1",
		"hits_reported_total",
		"request_duration_seconds_bucket{endpoint=\"search\",le=\"+Inf\"} 1",
		"# TYPE events_written_total counter",
		"events_written_total{endpoint=\"batch\"} 0",
		"flushes_total{endpoint=\"batch\"} 0",
		"# TYPE shard_quarantined gauge",
		"# TYPE degraded_queries_total counter",
	} {
		if !strings.Contains(body, metric) {
			t.Fatalf("exposition missing %q:\n%s", metric, body)
		}
	}

	// One search wrote its hits and its done event in at least one flush and
	// no more flushes than lines.
	events, flushes := srv.searchWire.Events.Load(), srv.searchWire.Flushes.Load()
	if events < 2 || flushes < 1 || flushes > events {
		t.Fatalf("search wrote %d events in %d flushes", events, flushes)
	}
	for _, metric := range []string{
		fmt.Sprintf("events_written_total{endpoint=\"search\"} %d\n", events),
		fmt.Sprintf("flushes_total{endpoint=\"search\"} %d\n", flushes),
	} {
		if !strings.Contains(body, metric) {
			t.Fatalf("exposition missing %q:\n%s", metric, body)
		}
	}

	// The Prometheus scraper's Accept header selects the same format.
	rec = httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "text/plain; version=0.0.4")
	srv.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Accept negotiation failed: content type %q", ct)
	}

	// Without negotiation /metrics stays JSON for the existing dashboards.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("default content type %q, want JSON", ct)
	}
}

// degradedDiskServer builds a sharded disk index, destroys one shard file and
// opens it AllowDegraded — a server running with a standing quarantine.
func degradedDiskServer(t *testing.T, strict bool) *server {
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
	if err := os.Truncate(filepath.Join(dir, "shard-1.oasis"), 16); err != nil {
		t.Fatal(err)
	}
	eng, err := oasis.OpenEngine(dir, oasis.EngineOptions{AllowDegraded: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	scheme, err := oasis.NewScheme(oasis.MatrixByName("BLOSUM62"), -8)
	if err != nil {
		t.Fatal(err)
	}
	return newServer(eng, serverConfig{scheme: scheme, defaultEValue: 20000, maxBatch: 8, strict: strict})
}

// TestDegradedServing206 pins partial-failure serving end to end: with one of
// two shard files destroyed at open, searches answer 206 from the survivors,
// every done event is marked degraded with per-shard detail, and
// /healthz/ready reports the quarantine while staying ready.
func TestDegradedServing206(t *testing.T) {
	srv := degradedDiskServer(t, false)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/search", strings.NewReader(`{"query":"DKDGDGTITTKE"}`)))
	if rec.Code != http.StatusPartialContent {
		t.Fatalf("status %d, want 206: %s", rec.Code, rec.Body.String())
	}
	events := decodeNDJSON(t, rec.Body.String())
	last := events[len(events)-1]
	if last.Type != "done" || !last.Degraded {
		t.Fatalf("final event %+v, want done with degraded=true", last)
	}
	if last.Stats == nil || len(last.Stats.ShardErrors) != 1 || last.Stats.ShardErrors[0].Shard != 1 {
		t.Fatalf("per-shard error detail missing: %+v", last.Stats)
	}
	for _, ev := range events[:len(events)-1] {
		if ev.Type != "hit" {
			t.Fatalf("unexpected event %+v", ev)
		}
	}

	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz/ready", nil))
	var health map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || health["shards_quarantined"].(float64) != 1 {
		t.Fatalf("healthz/ready = %d %v, want ready with 1 quarantine", rec.Code, health)
	}
}

// TestStrictModeRefusesDegraded pins -strict: the same standing quarantine
// fails the query with an error event instead of a partial stream.
func TestStrictModeRefusesDegraded(t *testing.T) {
	srv := degradedDiskServer(t, true)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/search", strings.NewReader(`{"query":"DKDGDGTITTKE"}`)))
	if rec.Code == http.StatusPartialContent {
		t.Fatal("strict server answered 206")
	}
	events := decodeNDJSON(t, rec.Body.String())
	last := events[len(events)-1]
	if last.Type != "error" || last.Error == "" {
		t.Fatalf("final event %+v, want a per-query error", last)
	}
	for _, ev := range events {
		if ev.Type == "hit" {
			t.Fatalf("strict server streamed a hit from a degraded index: %+v", ev)
		}
	}
}
