package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/score"
	"repro/oasis"
)

func testServer(t *testing.T) *server {
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
	return newServer(eng, serverConfig{scheme: scheme, defaultEValue: 20000, maxBatch: 8})
}

func decodeNDJSON(t *testing.T, body string) []hitEvent {
	t.Helper()
	var events []hitEvent
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var ev hitEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	return events
}

func TestHealthz(t *testing.T) {
	srv := testServer(t)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz/ready", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ready" || body["shards"].(float64) != 2 || body["shards_quarantined"].(float64) != 0 {
		t.Fatalf("healthz/ready = %v", body)
	}
	for _, gone := range []string{"/healthz", "/stats"} {
		rec = httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", gone, nil))
		if rec.Code != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", gone, rec.Code)
		}
	}
}

func TestSearchStreamsDecreasingScores(t *testing.T) {
	srv := testServer(t)
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/search", strings.NewReader(`{"query":"DKDGDGTITTKE"}`))
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	events := decodeNDJSON(t, rec.Body.String())
	if len(events) < 2 {
		t.Fatalf("expected hits + done, got %d events", len(events))
	}
	last := events[len(events)-1]
	if last.Type != "done" || last.Stats == nil {
		t.Fatalf("final event = %+v, want done with stats", last)
	}
	prev := int(^uint(0) >> 1)
	hits := 0
	for _, ev := range events[:len(events)-1] {
		if ev.Type != "hit" {
			t.Fatalf("unexpected event %+v", ev)
		}
		if ev.Score > prev {
			t.Fatalf("scores not decreasing: %d after %d", ev.Score, prev)
		}
		prev = ev.Score
		hits++
	}
	if last.Hits != hits {
		t.Fatalf("done counted %d hits, stream had %d", last.Hits, hits)
	}
}

func TestSearchTopK(t *testing.T) {
	srv := testServer(t)
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/search", strings.NewReader(`{"query":"DKDGDGTITTKE","top":1}`))
	srv.ServeHTTP(rec, req)
	events := decodeNDJSON(t, rec.Body.String())
	hits := 0
	for _, ev := range events {
		if ev.Type == "hit" {
			hits++
		}
	}
	if hits != 1 {
		t.Fatalf("top=1 streamed %d hits", hits)
	}
}

func TestBatchDemultiplexes(t *testing.T) {
	srv := testServer(t)
	rec := httptest.NewRecorder()
	body := `{"queries":[{"id":"ef","query":"DKDGDGTITTKE"},{"id":"myo","query":"FDKFKHLK"}]}`
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/batch", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	events := decodeNDJSON(t, rec.Body.String())
	lastScore := map[string]int{}
	done := map[string]bool{}
	for _, ev := range events {
		switch ev.Type {
		case "hit":
			if prev, ok := lastScore[ev.QueryID]; ok && ev.Score > prev {
				t.Fatalf("query %q: score order violated", ev.QueryID)
			}
			lastScore[ev.QueryID] = ev.Score
		case "done":
			done[ev.QueryID] = true
		default:
			t.Fatalf("unexpected event %+v", ev)
		}
	}
	if !done["ef"] || !done["myo"] || len(done) != 2 {
		t.Fatalf("done events = %v", done)
	}
}

func TestBadRequests(t *testing.T) {
	srv := testServer(t)
	cases := []struct {
		path, body string
	}{
		{"/search", `{"query":""}`},
		{"/search", `not json`},
		{"/batch", `{"queries":[]}`},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", c.path, strings.NewReader(c.body)))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s %q: status %d, want 400", c.path, c.body, rec.Code)
		}
	}
}

// TestBuildQueryEValueIsCheap: a request that states its threshold as an
// E-value (the default when min_score is absent) must not pay the numeric
// Karlin-Altschul solve per query — it is about a millisecond per matrix, so
// 1,000 buildQuery calls took about a second before score.Params memoised the
// standard-frequency parameters.  The threshold and statistics must be the
// ones a from-scratch solve gives.
func TestBuildQueryEValueIsCheap(t *testing.T) {
	srv := testServer(t)
	const motif, eValue = "DKDGDGTITTKE", 500.0
	lambda, err := score.Lambda(srv.cfg.scheme.Matrix, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	var q oasis.BatchQuery
	for i := 0; i < 1000; i++ {
		if q, err = srv.buildQuery(searchRequest{Query: motif, EValue: eValue}, i); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("1,000 buildQuery calls with evalue set took %s, want < 100ms", elapsed)
	}
	ka := q.Options.KA
	if ka == nil || ka.Lambda != lambda {
		t.Fatalf("KA = %+v, want lambda %v from a fresh solve", ka, lambda)
	}
	if want := ka.MinScore(eValue, len(motif), srv.eng.TotalResidues()); q.Options.MinScore != want {
		t.Fatalf("MinScore = %d, want %d", q.Options.MinScore, want)
	}
}

// TestBatchOverLimitIs413 pins the batch limit: a batch over it is rejected
// with 413 before any of its queries reaches the engine.
func TestBatchOverLimitIs413(t *testing.T) {
	srv := testServer(t) // maxBatch: 8
	var sb strings.Builder
	sb.WriteString(`{"queries":[`)
	for i := 0; i < 9; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"query":"ACD"}`)
	}
	sb.WriteString(`]}`)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/batch", strings.NewReader(sb.String())))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", rec.Code, rec.Body.String())
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body["error"], "batch limit 8") {
		t.Fatalf("error body %q does not name the limit", body["error"])
	}
	st := srv.eng.Stats()
	if st.QueriesServed != 0 {
		t.Fatalf("over-limit batch was admitted: %d queries served", st.QueriesServed)
	}
}

// TestMetricsEndpoint checks /metrics exposes the scratch free-list stats
// and one queue-depth entry per shard.
func TestMetricsEndpoint(t *testing.T) {
	srv := testServer(t)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/search", strings.NewReader(`{"query":"DKDGDGTITTKE"}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("warm-up search failed: %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var body struct {
		Engine struct {
			Scratch struct {
				Gets   int64 `json:"Gets"`
				Reuses int64 `json:"Reuses"`
				Idle   int   `json:"Idle"`
			} `json:"scratch"`
			Shards []struct {
				Shard  int   `json:"shard"`
				Active int64 `json:"active"`
			} `json:"shards"`
		} `json:"engine"`
		QueriesServed int64 `json:"queries_served"`
		MaxBatch      int   `json:"max_batch"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad metrics JSON %s: %v", rec.Body.String(), err)
	}
	if len(body.Engine.Shards) != 2 {
		t.Fatalf("metrics list %d shards, want 2", len(body.Engine.Shards))
	}
	for i, sh := range body.Engine.Shards {
		if sh.Shard != i || sh.Active != 0 {
			t.Fatalf("idle engine shard %d metrics = %+v", i, sh)
		}
	}
	if body.Engine.Scratch.Gets <= 0 {
		t.Fatalf("scratch stats missing after a served query: %+v", body.Engine.Scratch)
	}
	if body.QueriesServed != 1 || body.MaxBatch != 8 {
		t.Fatalf("metrics = served %d, max_batch %d; want 1, 8", body.QueriesServed, body.MaxBatch)
	}
}
