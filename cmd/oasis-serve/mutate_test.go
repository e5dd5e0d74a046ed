package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func postJSON(t *testing.T, srv *server, path, body string) (*httptest.ResponseRecorder, mutateResponse) {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
	var resp mutateResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("bad %s response %q: %v", path, rec.Body.String(), err)
		}
	}
	return rec, resp
}

// searchHits runs a /search with a strong threshold (so the permissive
// default E-value does not surface weak background matches) and returns the
// seq_ids of its hit events.
func searchHits(t *testing.T, srv *server, query string) []string {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/search",
		strings.NewReader(`{"query":"`+query+`","min_score":60}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("search status %d: %s", rec.Code, rec.Body.String())
	}
	var ids []string
	for _, ev := range decodeNDJSON(t, rec.Body.String()) {
		if ev.Type == "hit" {
			ids = append(ids, ev.SeqID)
		}
	}
	return ids
}

func TestInsertSearchDeleteRoundTrip(t *testing.T) {
	srv := testServer(t)
	const motif = "WWWWHHHHWWWWHHHH"

	if hits := searchHits(t, srv, motif); len(hits) != 0 {
		t.Fatalf("unexpected pre-insert hits %v", hits)
	}
	gen0 := srv.eng.Generation()

	rec, resp := postJSON(t, srv, "/insert",
		`{"id":"NEW1","sequence":"AAAA`+motif+`AAAA"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("insert status %d: %s", rec.Code, rec.Body.String())
	}
	if resp.Generation <= gen0 || resp.MemtableSequences != 1 {
		t.Fatalf("insert response %+v (gen0 %d)", resp, gen0)
	}

	// The insert must be visible to the very next search: the delta layer is
	// searchable immediately.
	hits := searchHits(t, srv, motif)
	if len(hits) == 0 || hits[0] != "NEW1" {
		t.Fatalf("post-insert hits %v, want NEW1 first", hits)
	}

	rec, resp = postJSON(t, srv, "/delete", `{"id":"NEW1"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("delete status %d: %s", rec.Code, rec.Body.String())
	}
	if resp.Tombstones != 1 {
		t.Fatalf("delete response %+v, want 1 tombstone", resp)
	}
	for _, id := range searchHits(t, srv, motif) {
		if id == "NEW1" {
			t.Fatal("deleted sequence still reported")
		}
	}
}

func TestInsertRejectsBadRequests(t *testing.T) {
	srv := testServer(t)
	for name, body := range map[string]string{
		"empty id":       `{"sequence":"ACDEF"}`,
		"empty sequence": `{"id":"X"}`,
		"bad residues":   `{"id":"X","sequence":"ACD#F"}`,
		"bad json":       `{`,
		"duplicate id":   `{"id":"CALM_HUMAN","sequence":"ACDEF"}`,
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/insert", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, rec.Code)
		}
	}
	rec, _ := postJSON(t, srv, "/delete", `{"id":"NO_SUCH"}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("delete unknown id: status %d, want 400", rec.Code)
	}
}

func TestCompactEndpointFoldsMemtable(t *testing.T) {
	srv := testServer(t)
	if _, resp := postJSON(t, srv, "/compact", ""); resp.Compacted {
		t.Fatalf("pristine compact reported work: %+v", resp)
	}
	rec, _ := postJSON(t, srv, "/insert", `{"id":"NEW1","sequence":"WWWWHHHHWWWWHHHH"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("insert status %d: %s", rec.Code, rec.Body.String())
	}
	rec, resp := postJSON(t, srv, "/compact", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("compact status %d: %s", rec.Code, rec.Body.String())
	}
	if !resp.Compacted || resp.MemtableSequences != 0 {
		t.Fatalf("compact response %+v, want compacted with empty memtable", resp)
	}
	if hits := searchHits(t, srv, "WWWWHHHHWWWWHHHH"); len(hits) == 0 || hits[0] != "NEW1" {
		t.Fatalf("post-compact hits %v, want NEW1 first", hits)
	}
}

func TestMutationsShedWhileDraining(t *testing.T) {
	srv := testServer(t)
	srv.startDrain()
	for _, path := range []string{"/insert", "/delete", "/compact"} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(`{"id":"X","sequence":"ACDEF"}`)))
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("%s while draining: status %d, want 503", path, rec.Code)
		}
	}
}

func TestPrometheusExposesMutableSeries(t *testing.T) {
	srv := testServer(t)
	if rec, _ := postJSON(t, srv, "/insert", `{"id":"NEW1","sequence":"WWWWHHHHWWWW"}`); rec.Code != http.StatusOK {
		t.Fatalf("insert status %d", rec.Code)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=prometheus", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"index_generation 1",
		"inserts_total 1",
		"deletes_total 0",
		"memtable_sequences 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
}
