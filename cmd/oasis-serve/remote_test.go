package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/diskst"
	"repro/internal/remote"
	"repro/internal/shard"
	"repro/oasis"
)

// corpusStrings is a deterministic corpus for slicing tests: order matters
// because slice order defines the global sequence numbering.
var corpusStrings = [][2]string{
	{"CALM_HUMAN", "ADQLTEEQIAEFKEAFSLFDKDGDGTITTKELGTVMRSLGQNPTEAELQDMINEVDADGNGTIDFPEFLTMMARKM"},
	{"TNNC1_HUMAN", "MDDIYKAAVEQLTEEQKNEFKAAFDIFVLGAEDGCISTKELGKVMRMLGQNPTPEELQEMIDEVDEDGSGTVDFDEFLVMMVRCM"},
	{"MYG_HUMAN", "GLSDGEWQLVLNVWGKVEADIPGHGQEVLIRLFKGHPETLEKFDKFKHLKSEDEMKASEDLKKHGATVLTALGGILKKKGHHEAEI"},
	{"UNRELATED", "PPPPGGGGSSSSPPPPGGGGSSSSPPPPGGGGSSSS"},
}

func corpusDB(t *testing.T, from, to int) *oasis.Database {
	t.Helper()
	var seqs []oasis.Sequence
	for _, s := range corpusStrings[from:to] {
		seqs = append(seqs, oasis.Sequence{ID: s[0], Residues: oasis.Protein.MustEncode(s[1])})
	}
	db, err := oasis.NewDatabase(oasis.Protein, seqs)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// coordinatorServer starts two single-replica slice servers over halves of
// the corpus and returns the standard HTTP front end running in coordinator
// mode, plus the slice servers so tests can kill them.
func coordinatorServer(t *testing.T, strict bool) (*server, *oasis.Coordinator, []*httptest.Server) {
	t.Helper()
	var slices [][]string
	var sliceSrvs []*httptest.Server
	cut := len(corpusStrings) / 2
	for _, span := range [][2]int{{0, cut}, {cut, len(corpusStrings)}} {
		eng, err := shard.NewEngine(corpusDB(t, span[0], span[1]), shard.Options{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = eng.Close() })
		srv := httptest.NewServer(remote.NewServer(eng))
		t.Cleanup(srv.Close)
		sliceSrvs = append(sliceSrvs, srv)
		slices = append(slices, []string{srv.URL})
	}
	co, err := oasis.OpenCoordinator(t.Context(), oasis.CoordinatorOptions{Slices: slices}, oasis.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = co.Close() })
	scheme, err := oasis.NewScheme(oasis.MatrixByName("BLOSUM62"), -8)
	if err != nil {
		t.Fatal(err)
	}
	return newServer(co.Engine(), serverConfig{
		scheme:        scheme,
		defaultEValue: 20000,
		maxBatch:      8,
		strict:        strict,
		coordinator:   co,
	}), co, sliceSrvs
}

// TestCoordinatorSearchMatchesLocal: a /search through the coordinator front
// end must stream the same events a single-process server over the
// concatenated corpus streams.
func TestCoordinatorSearchMatchesLocal(t *testing.T) {
	srv, _, _ := coordinatorServer(t, false)

	local, err := oasis.NewEngine(corpusDB(t, 0, len(corpusStrings)), oasis.EngineOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = local.Close() })
	scheme, err := oasis.NewScheme(oasis.MatrixByName("BLOSUM62"), -8)
	if err != nil {
		t.Fatal(err)
	}
	localSrv := newServer(local, serverConfig{scheme: scheme, defaultEValue: 20000, maxBatch: 8})

	const body = `{"query":"DKDGDGTITTKE"}`
	run := func(s *server) []hitEvent {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/search", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		return decodeNDJSON(t, rec.Body.String())
	}
	got, want := run(srv), run(localSrv)
	if len(got) != len(want) || len(got) < 2 {
		t.Fatalf("coordinator streamed %d events, local %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		// elapsed_ms and stats are wall-clock and per-deployment; everything
		// the client keys on must match exactly.
		g.ElapsedMs, w.ElapsedMs = 0, 0
		g.Stats, w.Stats = nil, nil
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("event %d: coordinator %+v, local %+v", i, g, w)
		}
	}
	if last := got[len(got)-1]; last.Type != "done" || last.Degraded {
		t.Fatalf("final coordinator event = %+v", last)
	}
}

// TestCoordinatorReadyAndMetrics: /healthz/ready carries per-slice replica
// health, /metrics gains the remote section, and the Prometheus rendering
// exposes the fan-out counters and per-replica gauges.
func TestCoordinatorReadyAndMetrics(t *testing.T) {
	srv, _, _ := coordinatorServer(t, false)

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz/ready", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("ready status %d: %s", rec.Code, rec.Body.String())
	}
	var ready struct {
		Status string            `json:"status"`
		Slices []json.RawMessage `json:"slices"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Status != "ready" || len(ready.Slices) != 2 {
		t.Fatalf("ready body = %s", rec.Body.String())
	}

	// Serve one query so the fan-out counters move.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/search", strings.NewReader(`{"query":"DKDGDGTITTKE"}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("search status %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var metrics struct {
		Remote *struct {
			Metrics oasis.RemoteMetrics `json:"metrics"`
		} `json:"remote"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &metrics); err != nil {
		t.Fatal(err)
	}
	if metrics.Remote == nil || metrics.Remote.Metrics.Streams == 0 {
		t.Fatalf("remote metrics missing from /metrics: %s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=prometheus", nil))
	text := rec.Body.String()
	for _, series := range []string{"remote_attempts_total", "remote_failovers_total", "remote_hedge_wins_total", "remote_replica_up{slice=\"0\""} {
		if !strings.Contains(text, series) {
			t.Fatalf("prometheus output missing %s:\n%s", series, text)
		}
	}
}

// TestShardServerMetricsShowPools: a disk-backed shard server's JSON /metrics
// lists the buffer pool of every index file of its slice, with the requests a
// slice stream made of them — a slice's pool behaviour seen from outside.
func TestShardServerMetricsShowPools(t *testing.T) {
	path := t.TempDir()
	if _, _, err := oasis.BuildShardedDiskIndex(path, corpusDB(t, 0, len(corpusStrings)), oasis.ShardedIndexBuildOptions{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	dir, err := diskst.OpenDir(path, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := shard.OpenDiskEngine(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	scheme, err := oasis.NewScheme(oasis.MatrixByName("BLOSUM62"), -8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SearchAll(oasis.Protein.MustEncode("DKDGDGTITTKE"), core.Options{Scheme: scheme, MinScore: 20}); err != nil {
		t.Fatal(err)
	}
	var notReady atomic.Bool
	rec := httptest.NewRecorder()
	shardServerMux(remote.NewServer(eng), dir, &notReady).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var metrics struct {
		Pools []diskst.PoolStats `json:"pools"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics.Pools) != 2 {
		t.Fatalf("shard server /metrics lists %d pools for a two-shard slice: %s", len(metrics.Pools), rec.Body.String())
	}
	for i, p := range metrics.Pools {
		if p.Shard != i || !strings.HasPrefix(p.File, "shard-") || p.Requests == 0 {
			t.Fatalf("pool %d reported as %+v, want its shard, file and the search's requests", i, p)
		}
	}
}

// TestCoordinatorDeadSliceDegrades: when every replica of a slice is gone the
// stream completes degraded from the surviving slices, and readiness drops to
// 503 once the replica is marked down.
func TestCoordinatorDeadSliceDegrades(t *testing.T) {
	srv, _, sliceSrvs := coordinatorServer(t, false)
	sliceSrvs[1].Close()

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/search", strings.NewReader(`{"query":"DKDGDGTITTKE"}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("search status %d: %s", rec.Code, rec.Body.String())
	}
	events := decodeNDJSON(t, rec.Body.String())
	last := events[len(events)-1]
	if last.Type != "done" || !last.Degraded {
		t.Fatalf("final event after slice death = %+v, want degraded done", last)
	}

	// The default attempt budget (3 tries against the lone replica) crosses
	// the down threshold, so readiness reports the slice as dead.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz/ready", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("ready status %d after slice death: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "no live replica") {
		t.Fatalf("ready body = %s", rec.Body.String())
	}

	// Liveness must NOT flap: the process itself is fine.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz/live", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("live status %d", rec.Code)
	}

	// With the replica now marked down, degradation is known BEFORE the
	// stream starts: follow-up responses carry 206 like a standing
	// quarantine, and the stream still completes degraded from slice 0.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/search", strings.NewReader(`{"query":"DKDGDGTITTKE"}`)))
	if rec.Code != http.StatusPartialContent {
		t.Fatalf("follow-up status %d, want 206", rec.Code)
	}
	events = decodeNDJSON(t, rec.Body.String())
	if last := events[len(events)-1]; last.Type != "done" || !last.Degraded {
		t.Fatalf("follow-up final event = %+v, want degraded done", last)
	}
}

// TestCoordinatorStrictDeadSliceFails: -strict turns the degraded completion
// into a per-query error event.
func TestCoordinatorStrictDeadSliceFails(t *testing.T) {
	srv, _, sliceSrvs := coordinatorServer(t, true)
	sliceSrvs[0].Close()

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/search", strings.NewReader(`{"query":"DKDGDGTITTKE"}`)))
	events := decodeNDJSON(t, rec.Body.String())
	last := events[len(events)-1]
	if last.Type != "error" || last.Error == "" {
		t.Fatalf("final strict event after slice death = %+v, want error", last)
	}
}

// TestReadinessDrainSequence: setNotReady flips only readiness (traffic still
// served), startDrain sheds; liveness stays 200 throughout.
func TestReadinessDrainSequence(t *testing.T) {
	srv := testServer(t)

	get := func(path string) int {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code
	}
	post := func() int {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/search", strings.NewReader(`{"query":"DKDGDGTITTKE"}`)))
		return rec.Code
	}

	if c := get("/healthz/ready"); c != http.StatusOK {
		t.Fatalf("ready before shutdown: %d", c)
	}
	srv.setNotReady()
	if c := get("/healthz/ready"); c != http.StatusServiceUnavailable {
		t.Fatalf("ready after setNotReady: %d", c)
	}
	if c := post(); c != http.StatusOK {
		t.Fatalf("search during drain grace must still serve, got %d", c)
	}
	srv.startDrain()
	if c := post(); c != http.StatusServiceUnavailable {
		t.Fatalf("search after startDrain: %d", c)
	}
	if c := get("/healthz/live"); c != http.StatusOK {
		t.Fatalf("liveness flapped during shutdown: %d", c)
	}
}

func TestParseSlices(t *testing.T) {
	got, err := parseSlices("h1:9001|h1:9002, h2:9003")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"h1:9001", "h1:9002"}, {"h2:9003"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseSlices = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "a,,b", "|"} {
		if _, err := parseSlices(bad); err == nil {
			t.Fatalf("parseSlices(%q) accepted", bad)
		}
	}
}

// TestCoordinatorRejectsWrites: /insert, /delete and /compact answer 400 on a
// coordinator — the corpus is owned by the slice servers.
func TestCoordinatorRejectsWrites(t *testing.T) {
	srv, _, _ := coordinatorServer(t, false)
	for _, tc := range []struct{ path, body string }{
		{"/insert", `{"id":"NEW1","sequence":"DKDGDGTITTKE"}`},
		{"/delete", `{"id":"NEW1"}`},
		{"/compact", ``},
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", tc.path, strings.NewReader(tc.body)))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "immutable") {
			t.Errorf("%s on a coordinator: %d %s, want 400 naming the immutable index", tc.path, rec.Code, rec.Body.String())
		}
	}
}
