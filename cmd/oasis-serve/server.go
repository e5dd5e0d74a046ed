package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/ndjson"
	"repro/oasis"
)

// serverConfig carries the per-deployment search defaults.
type serverConfig struct {
	scheme        oasis.Scheme
	defaultEValue float64
	// maxBatch bounds the number of queries accepted per /batch request
	// (0 = the maxBatch constant; tests shrink it).
	maxBatch int
	// maxQueryLen bounds accepted query lengths (residues).
	maxQueryLen int
	// slotWait bounds each query's wait for a search slot: past it the query
	// ends with oasis.ErrSaturated, and a request that has written nothing
	// yet is shed with HTTP 503 + Retry-After (0 = wait as long as the
	// request lives: tests; main passes the slotWait constant).
	slotWait time.Duration
	// queryTimeout is the per-query wall-clock budget: a search or batch
	// whose stream outlives it is cancelled and its queries end with an
	// "error" event (0 = no limit).
	queryTimeout time.Duration
	// strict fails a query outright when any shard fails, instead of
	// completing a Degraded stream from the surviving shards.
	strict bool
	// compactAfter triggers a background compaction once the memtable holds
	// this many inserted sequences (0 = only explicit POST /compact).
	compactAfter int
	// coordinator is set when the engine fans out to remote shard servers
	// (-coordinator); it supplies per-replica health for /healthz/ready and
	// the fan-out robustness counters for /metrics.
	coordinator *oasis.Coordinator
}

// searchRequest is the JSON body of POST /search and one element of the
// /batch query list.
type searchRequest struct {
	// ID labels the query in batch responses (optional for /search).
	ID string `json:"id,omitempty"`
	// Query is the residue string (protein or DNA letters, matching the
	// server's database alphabet).
	Query string `json:"query"`
	// EValue overrides the server's default selectivity when > 0.
	EValue float64 `json:"evalue,omitempty"`
	// MinScore overrides the E-value-derived threshold when > 0.
	MinScore int `json:"min_score,omitempty"`
	// Top truncates the stream to the k strongest sequences when > 0.
	// All three: 0 or absent means "default"; negative is refused.
	Top int `json:"top,omitempty"`
}

type batchRequest struct {
	Queries []searchRequest `json:"queries"`
}

// hitEvent is one NDJSON line of a result stream.  Type is "hit" for a
// result, "done" when a query's stream ends (with its work counters), or
// "error" for a terminal per-query failure.
type hitEvent struct {
	Type    string  `json:"type"`
	QueryID string  `json:"query_id,omitempty"`
	Rank    int     `json:"rank,omitempty"`
	SeqID   string  `json:"seq_id,omitempty"`
	Score   int     `json:"score,omitempty"`
	EValue  float64 `json:"evalue,omitempty"`
	// Hits and ElapsedMs summarise the query on "done" events.  Degraded
	// marks a stream that completed from surviving shards after one or more
	// shards were quarantined; the per-shard errors are in Stats.ShardErrors.
	Hits      int                `json:"hits,omitempty"`
	ElapsedMs float64            `json:"elapsed_ms,omitempty"`
	Degraded  bool               `json:"degraded,omitempty"`
	Stats     *oasis.SearchStats `json:"stats,omitempty"`
	Error     string             `json:"error,omitempty"`
}

// server is the HTTP front end over one warm engine.
type server struct {
	eng *oasis.Engine
	cfg serverConfig
	mux *http.ServeMux
	// lat holds one latency histogram per endpoint, keyed by the /metrics
	// label; populated once in newServer, so reads are lock-free.
	lat map[string]*latencyHistogram
	// searchWire and batchWire count the event lines each streaming endpoint
	// wrote and the write+flush rounds that carried them (Prometheus /metrics).
	searchWire, batchWire ndjson.Stats
	// adm bounds each client's search/batch requests in flight and holds
	// each client's oasis.Turn.
	adm *admission
	// notReady is flipped first during graceful shutdown: /healthz/ready
	// answers 503 while the server keeps serving for -drain-grace, so load
	// balancers stop routing before any request is shed.
	notReady atomic.Bool
	// draining is flipped by startDrain during graceful shutdown: new
	// search/batch requests are shed with 503 while in-flight streams finish.
	draining atomic.Bool
	// compacting is the single-flight latch for -compact-after background
	// compactions (see maybeCompact).
	compacting atomic.Bool
}

// newServer builds the HTTP handler: build the engine once, serve many
// queries, stream results as NDJSON so clients see hits (strongest first)
// the moment OASIS finds them.
func newServer(eng *oasis.Engine, cfg serverConfig) *server {
	if cfg.maxBatch <= 0 {
		cfg.maxBatch = maxBatch
	}
	if cfg.maxQueryLen <= 0 {
		cfg.maxQueryLen = 10_000
	}
	s := &server{eng: eng, cfg: cfg, mux: http.NewServeMux(), lat: map[string]*latencyHistogram{},
		adm: &admission{slotWait: cfg.slotWait, clients: map[string]*admClient{}}}
	s.handle("GET /healthz/live", "healthz_live", s.handleHealthLive)
	s.handle("GET /healthz/ready", "healthz_ready", s.handleHealthReady)
	s.handle("GET /metrics", "metrics", s.handleMetrics)
	s.handle("POST /search", "search", s.handleSearch)
	s.handle("POST /batch", "batch", s.handleBatch)
	s.handle("POST /insert", "insert", s.handleInsert)
	s.handle("POST /delete", "delete", s.handleDelete)
	s.handle("POST /compact", "compact", s.handleCompact)
	return s
}

// handle registers an endpoint wrapped with its latency histogram.  The
// timer spans the whole handler — request decode through the last streamed
// event — so the search/batch histograms measure what a slowest-consumer
// client experiences end to end, not just time-to-first-hit.
func (s *server) handle(pattern, label string, h http.HandlerFunc) {
	hist := &latencyHistogram{}
	s.lat[label] = hist
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		hist.observe(time.Since(start))
	})
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// setNotReady flips /healthz/ready to 503 without shedding anything: the
// first stage of graceful shutdown, giving load balancers -drain-grace to
// route new traffic elsewhere while this server still answers everything.
func (s *server) setNotReady() { s.notReady.Store(true) }

// startDrain puts the server in shutdown drain mode: subsequent search/batch
// requests get 503 + Retry-After immediately, while streams already admitted
// run to completion under http.Server.Shutdown's grace period.
func (s *server) startDrain() {
	s.notReady.Store(true)
	s.draining.Store(true)
}

// handleHealthLive is pure liveness: 200 whenever the process can serve HTTP
// at all, even while draining.  Orchestrators restart on liveness failures,
// so this must not flap during graceful shutdown — that is readiness's job.
func (s *server) handleHealthLive(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// handleHealthReady reports whether this server should receive traffic: 503
// while draining for shutdown, and in coordinator mode 503 when any slice
// has no live replica (queries would degrade or, with -strict, fail).  The
// body describes the database either way, with the quarantined shard count
// and, on a coordinator, per-slice replica health, so operators can see a
// brown-out forming before it takes readiness down.  Quarantined shards
// alone leave the server ready: it still serves (degraded) results.
func (s *server) handleHealthReady(w http.ResponseWriter, _ *http.Request) {
	ready := !s.notReady.Load()
	body := map[string]any{
		"shards":             s.eng.NumShards(),
		"shards_quarantined": len(s.eng.Standing()),
		"sequences":          s.eng.NumSequences(),
		"residues":           s.eng.TotalResidues(),
	}
	if !ready {
		body["reason"] = "draining"
	}
	if co := s.cfg.coordinator; co != nil {
		body["slices"] = co.Health()
		if dead := s.deadSlices(); dead > 0 {
			ready = false
			body["reason"] = fmt.Sprintf("%d slice(s) have no live replica", dead)
		}
	}
	status := http.StatusOK
	body["status"] = "ready"
	if !ready {
		status = http.StatusServiceUnavailable
		body["status"] = "not_ready"
	}
	writeJSON(w, status, body)
}

// deadSlices counts coordinator slices whose every replica is marked down —
// queries are known-degraded (or, with -strict, doomed) before they start.
// Unlike a standing quarantine this recovers: replica health resets on the
// first successful attempt after the slice comes back.
func (s *server) deadSlices() int {
	co := s.cfg.coordinator
	if co == nil {
		return 0
	}
	dead := 0
	for _, sh := range co.Health() {
		live := false
		for _, r := range sh.Replicas {
			if r.State != "down" {
				live = true
				break
			}
		}
		if !live {
			dead++
		}
	}
	return dead
}

// handleMetrics exposes the engine's resource snapshot for capacity
// planning: searcher-scratch free-list reuse, per-shard worker-pool queue
// depths, per-shard buffer-pool hit rates (disk-backed engines), and one
// latency histogram per endpoint, alongside the lifetime traffic counters.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r) {
		s.writePrometheus(w)
		return
	}
	st := s.eng.Stats()
	latency := make(map[string]latencySnapshot, len(s.lat))
	for label, hist := range s.lat {
		latency[label] = hist.snapshot()
	}
	em := s.eng.Metrics()
	body := map[string]any{
		"engine":         em,
		"latency":        latency,
		"queries_served": st.QueriesServed,
		"hits_reported":  st.HitsReported,
		"max_batch":      s.cfg.maxBatch,
		"admission":      s.adm.snapshot(),
	}
	if em.Cache != nil {
		// Headline number for dashboards; the full counters live under
		// engine.cache.
		body["cache_hit_rate"] = em.Cache.HitRate
	}
	if co := s.cfg.coordinator; co != nil {
		body["remote"] = map[string]any{
			"metrics": co.RemoteMetrics(),
			"health":  co.Health(),
		}
	}
	writeJSON(w, http.StatusOK, body)
}

// clientKey identifies the requester for admission: an explicit
// X-Client-ID header when present, otherwise the remote host (all
// connections from one address share a Turn and an in-flight bound).
//
// X-Client-ID is a COOPERATIVE key: a caller that mints a fresh ID per
// request gets a fresh place in the slot queue each time and defeats the
// per-client turn.  Deployments facing untrusted clients should strip or
// overwrite the header at the ingress proxy (e.g. set it to the
// authenticated principal) so the fallback — the remote address, which a
// client cannot cheaply multiply — is what actually partitions strangers.
func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// admit books a search or batch request against its client's in-flight
// bound and returns the request under a context carrying the client's
// oasis.Turn.  The returned release function must be deferred; ok=false
// means the response has already been written.
func (s *server) admit(w http.ResponseWriter, r *http.Request) (_ *http.Request, release func(), ok bool) {
	if s.draining.Load() {
		// Shutdown drain: shed new work immediately so in-flight streams can
		// finish within the grace period.
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, errors.New("server is draining"))
		return nil, nil, false
	}
	turn, release, err := s.adm.acquire(clientKey(r))
	if err != nil {
		// 429: this client already has its bound of requests in flight;
		// admitting more would let it grow server memory without bound.
		httpError(w, http.StatusTooManyRequests, err)
		return nil, nil, false
	}
	return r.WithContext(oasis.WithTurn(r.Context(), turn)), release, true
}

// buildQuery validates one request and assembles the batch query for it.
func (s *server) buildQuery(req searchRequest, index int) (oasis.BatchQuery, error) {
	if req.Query == "" {
		return oasis.BatchQuery{}, fmt.Errorf("query %d: empty query", index)
	}
	residues, err := s.eng.Alphabet().Encode(req.Query)
	if err != nil {
		return oasis.BatchQuery{}, fmt.Errorf("query %d: %w", index, err)
	}
	if len(residues) == 0 || len(residues) > s.cfg.maxQueryLen {
		return oasis.BatchQuery{}, fmt.Errorf("query %d: length %d outside 1..%d", index, len(residues), s.cfg.maxQueryLen)
	}
	// A negative threshold or limit is a client bug, not a way to spell
	// "default": {"top":-5} would otherwise stream every hit.
	switch {
	case req.EValue < 0:
		return oasis.BatchQuery{}, fmt.Errorf("query %d: evalue %g is negative", index, req.EValue)
	case req.MinScore < 0:
		return oasis.BatchQuery{}, fmt.Errorf("query %d: min_score %d is negative", index, req.MinScore)
	case req.Top < 0:
		return oasis.BatchQuery{}, fmt.Errorf("query %d: top %d is negative", index, req.Top)
	}
	var optFns []oasis.SearchOption
	switch {
	case req.MinScore > 0:
		optFns = append(optFns, oasis.WithMinScore(req.MinScore))
	case req.EValue > 0:
		optFns = append(optFns, oasis.WithEValue(req.EValue))
	default:
		optFns = append(optFns, oasis.WithEValue(s.cfg.defaultEValue))
	}
	if req.Top > 0 {
		optFns = append(optFns, oasis.WithMaxResults(req.Top))
	}
	if s.cfg.strict {
		optFns = append(optFns, oasis.WithStrictShards())
	}
	opts, err := oasis.NewSearchOptionsSized(s.cfg.scheme, s.eng.TotalResidues(), residues, optFns...)
	if err != nil {
		return oasis.BatchQuery{}, fmt.Errorf("query %d: %w", index, err)
	}
	id := req.ID
	if id == "" {
		id = fmt.Sprintf("q%d", index)
	}
	return oasis.BatchQuery{ID: id, Residues: residues, Options: opts}, nil
}

// handleSearch streams one query's hits as NDJSON in decreasing score order.
// The request context cancels the search when the client disconnects.
func (s *server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if err := faultpoint.Hit(faultpoint.SiteServeSearch, "search"); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	var req searchRequest
	if !decodeBody(w, r, s.queryBodyLimit(), &req) {
		return
	}
	q, err := s.buildQuery(req, 0)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	r, release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	s.streamBatch(w, r, []oasis.BatchQuery{q}, &s.searchWire)
}

// handleBatch streams many queries' hits over one connection; events carry
// query_id so the client can demultiplex.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if err := faultpoint.Hit(faultpoint.SiteServeSearch, "batch"); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	var req batchRequest
	if !decodeBody(w, r, int64(s.cfg.maxBatch)*s.queryBodyLimit(), &req) {
		return
	}
	if len(req.Queries) == 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("no queries"))
		return
	}
	if len(req.Queries) > s.cfg.maxBatch {
		// 413: a single huge batch must not monopolise the worker pool.
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("%d queries exceeds the batch limit %d", len(req.Queries), s.cfg.maxBatch))
		return
	}
	batch := make([]oasis.BatchQuery, len(req.Queries))
	for i, qr := range req.Queries {
		q, err := s.buildQuery(qr, i)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		batch[i] = q
	}
	r, release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	s.streamBatch(w, r, batch, &s.batchWire)
}

// streamBatch submits the batch to the warm engine and appends each event as
// one NDJSON line to the response's coalescing writer: a hit is on the wire
// without waiting for a later one, and hits released together share a write.
// A batch whose first event is a query that found no search slot within
// cfg.slotWait is shed whole with HTTP 503 + Retry-After instead.
func (s *server) streamBatch(w http.ResponseWriter, r *http.Request, batch []oasis.BatchQuery, wire *ndjson.Stats) {
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	if s.cfg.queryTimeout > 0 {
		ctx, cancel = context.WithTimeoutCause(ctx, s.cfg.queryTimeout, errQueryTimeout)
		defer cancel()
	}
	// 206-style partial marker, known before the stream starts: shards
	// quarantined at open time — or, on a coordinator, slices whose whole
	// replica set is marked down — degrade every response.
	partial := (len(s.eng.Standing()) > 0 || s.deadSlices() > 0) && !s.cfg.strict
	results := s.eng.SubmitBatch(ctx, batch)
	res, ok := <-results
	if ok && res.Done && errors.Is(res.Err, oasis.ErrSaturated) {
		cancel()
		for range results {
		}
		w.Header().Set("Retry-After", strconv.Itoa(max(1, int(s.cfg.slotWait/time.Second))))
		httpError(w, http.StatusServiceUnavailable, res.Err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no")
	if partial {
		w.WriteHeader(http.StatusPartialContent)
	}
	// The writer waits on the CLIENT's context, not the query deadline: a
	// timed-out query still owes its reader an "error" event.
	ew := ndjson.NewWriter(r.Context(), w, wire)
	var line []byte
	counts := make([]int, len(batch))
	degraded := false
	for ; ok; res, ok = <-results {
		if !res.Done {
			counts[res.Index]++
			line = ndjson.AppendHit(line[:0], res.QueryID, res.Hit.Rank, res.Hit.SeqID, res.Hit.Score, res.Hit.EValue)
		} else {
			st := res.Stats // a copy: taking res's address would heap-allocate it on every hit too
			ev := hitEvent{Type: "done", QueryID: res.QueryID, Hits: counts[res.Index], Stats: &st}
			ev.ElapsedMs = float64(res.Elapsed.Nanoseconds()) / 1e6
			ev.Degraded = res.Stats.Degraded
			if res.Stats.Degraded {
				degraded = true
			}
			if res.Err != nil {
				ev.Type = "error"
				ev.Error = res.Err.Error()
				if errors.Is(res.Err, context.DeadlineExceeded) && context.Cause(ctx) == errQueryTimeout {
					ev.Error = fmt.Sprintf("query timeout %s exceeded", s.cfg.queryTimeout)
				}
			}
			var err error
			if line, err = ndjson.AppendJSON(line[:0], ev); err != nil {
				continue
			}
		}
		// A false return means the client is gone: the request context is
		// cancelled with it and the engine unwinds; just drain the channel.
		ew.Append(line)
	}
	// The writer goroutine owns w until Close returns.
	_ = ew.Close() // a write error here is the client's absence, already acted on
	// 206-style partial marker for mid-stream degradation, delivered as an
	// HTTP trailer since the status line is long gone by the time a shard
	// fails (per-query detail is on the "done" events themselves).
	w.Header().Set(http.TrailerPrefix+"X-Oasis-Partial", strconv.FormatBool(degraded))
}

// errQueryTimeout is the cancellation cause distinguishing the server-side
// per-query deadline from a client disconnect.
var errQueryTimeout = errors.New("per-query timeout exceeded")

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// queryBodyLimit bounds the JSON body of one query: the longest query the
// server accepts plus room for its identifier and thresholds.  A /batch body
// may be maxBatch times that.
func (s *server) queryBodyLimit() int64 { return int64(s.cfg.maxQueryLen) + 4096 }

// maxMutateBody bounds an /insert or /delete body: one sequence with its
// identifier.  The longest known protein is ~35,000 residues; 1 MB leaves
// room for nucleotide contigs while bounding the memory one request can make
// the server take: the body, its decoded copy and the memtable's suffix-tree
// nodes for every residue of it.
const maxMutateBody = 1 << 20

// decodeBody decodes a JSON request body of at most limit bytes into v,
// answering 413 for a longer body and 400 for malformed JSON itself.  The cap
// is what keeps a hostile client from making the server buffer gigabytes
// before any of the per-field limits is consulted.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	if err == nil {
		return true
	}
	status, err := http.StatusBadRequest, fmt.Errorf("invalid JSON: %w", err)
	if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
		status, err = http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", limit)
	}
	httpError(w, status, err)
	return false
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
