package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/remote"
	"repro/internal/shard"
)

// TestOversizedBodiesAnswer413: every POST endpoint caps its request body
// before decoding it — an oversized body is refused with 413 and the usual
// {"error":…} object, without the server buffering it, and the same server
// keeps answering normal requests afterwards.
func TestOversizedBodiesAnswer413(t *testing.T) {
	srv := testServer(t)
	sliceEng, err := shard.NewEngine(corpusDB(t, 0, len(corpusStrings)), shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sliceEng.Close() })
	slice := remote.NewServer(sliceEng)

	// A syntactically valid body whose one string field alone passes n bytes:
	// the decoder can only find out by reading past the cap.
	huge := func(prefix string, n int64) string { return prefix + strings.Repeat("A", int(n)) + `"}` }
	const motif = "DKDGDGTITTKE"
	for _, tc := range []struct {
		handler http.Handler
		path    string
		tooBig  string
		fine    string
	}{
		{srv, "/search", huge(`{"query":"`, srv.queryBodyLimit()), `{"query":"` + motif + `"}`},
		{srv, "/batch", huge(`{"queries":[{"query":"`, int64(srv.cfg.maxBatch)*srv.queryBodyLimit()), `{"queries":[{"query":"` + motif + `"}]}`},
		{srv, "/insert", huge(`{"id":"BIG","sequence":"`, maxMutateBody), `{"id":"SMALL","sequence":"` + motif + `"}`},
		{srv, "/delete", huge(`{"id":"`, maxMutateBody), `{"id":"SMALL"}`},
		{slice, "/oasis/shard/stream", huge(`{"matrix":"BLOSUM62","gap":-8,"min_score":20,"query":"`, 10_000+4096),
			`{"matrix":"BLOSUM62","gap":-8,"min_score":20,"query":"` + motif + `"}`},
	} {
		rec := httptest.NewRecorder()
		tc.handler.ServeHTTP(rec, httptest.NewRequest("POST", tc.path, strings.NewReader(tc.tooBig)))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: %d-byte body answered %d, want 413", tc.path, len(tc.tooBig), rec.Code)
		}
		var body map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
			t.Errorf("%s: 413 body %q is not an {\"error\":…} object", tc.path, rec.Body.String())
		}
		rec = httptest.NewRecorder()
		tc.handler.ServeHTTP(rec, httptest.NewRequest("POST", tc.path, strings.NewReader(tc.fine)))
		if rec.Code != http.StatusOK {
			t.Errorf("%s: normal request after the oversized one answered %d: %s", tc.path, rec.Code, rec.Body.String())
		}
	}
}

// TestNegativeFieldsAnswer400: a negative evalue, min_score or top is refused
// with 400 naming the field on both query endpoints instead of being read as
// "not set"; 0 keeps meaning "default".
func TestNegativeFieldsAnswer400(t *testing.T) {
	srv := testServer(t)
	const motif = "DKDGDGTITTKE"
	for _, tc := range []struct {
		fields string
		want   int
		names  string
	}{
		{`"evalue":-1`, http.StatusBadRequest, "evalue"},
		{`"min_score":-3`, http.StatusBadRequest, "min_score"},
		{`"top":-5`, http.StatusBadRequest, "top"},
		{`"evalue":0,"min_score":0,"top":0`, http.StatusOK, ""},
	} {
		one := `{"query":"` + motif + `",` + tc.fields + `}`
		for path, body := range map[string]string{"/search": one, "/batch": `{"queries":[` + one + `]}`} {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
			if rec.Code != tc.want {
				t.Errorf("%s %s: status %d, want %d: %s", path, tc.fields, rec.Code, tc.want, rec.Body.String())
				continue
			}
			if tc.want != http.StatusBadRequest {
				continue
			}
			var reply map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || !strings.Contains(reply["error"], tc.names) {
				t.Errorf("%s %s: 400 body %q does not name %q", path, tc.fields, rec.Body.String(), tc.names)
			}
		}
	}
}
