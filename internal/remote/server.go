package remote

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/ndjson"
	"repro/internal/score"
	"repro/internal/shard"
)

// Server exports one shard engine's merged stream over the wire protocol:
// its slice of the corpus becomes one boundable provider stream a
// coordinator can merge.  It is an http.Handler (mount it on a mux, or serve
// it directly); the heavy lifting is shard.Engine.SearchBounded, which
// re-exports the engine's locally merged stream together with its own
// decreasing upper bound.
type Server struct {
	eng         *shard.Engine
	maxQueryLen int

	// Lifetime counters for /metrics on the serving binary.
	streams   atomic.Int64 // streams opened
	cancelled atomic.Int64 // streams ended by client cancellation
	active    atomic.Int64 // streams in flight
	wire      ndjson.Stats // event lines written and the write+flush rounds that carried them
}

// ServerStats is a snapshot of a Server's lifetime stream counters.
type ServerStats struct {
	Streams   int64 `json:"streams"`
	Cancelled int64 `json:"cancelled"`
	Active    int64 `json:"active"`
	// EventsWritten / Flushes is how many event lines travel per write: hits
	// released together share one.
	EventsWritten int64 `json:"events_written"`
	Flushes       int64 `json:"flushes"`
}

// NewServer wraps eng as a shard server.
func NewServer(eng *shard.Engine) *Server {
	return &Server{eng: eng, maxQueryLen: 10_000}
}

// Stats returns the server's lifetime stream counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Streams: s.streams.Load(), Cancelled: s.cancelled.Load(), Active: s.active.Load(),
		EventsWritten: s.wire.Events.Load(), Flushes: s.wire.Flushes.Load(),
	}
}

// Info describes the served slice.
func (s *Server) Info() Info {
	cat := s.eng.Catalog()
	return Info{
		Sequences: cat.NumSequences(),
		Residues:  cat.TotalResidues(),
		Alphabet:  cat.Alphabet().Name(),
		Shards:    s.eng.NumShards(),
	}
}

// Register mounts the shard transport endpoints on mux.
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST "+PathStream, s.handleStream)
	mux.HandleFunc("GET "+PathInfo, s.handleInfo)
}

// ServeHTTP serves the two transport endpoints directly (tests, bare
// deployments).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == PathStream:
		s.handleStream(w, r)
	case r.Method == http.MethodGet && r.URL.Path == PathInfo:
		s.handleInfo(w, r)
	default:
		http.NotFound(w, r)
	}
}

func (s *Server) handleInfo(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.Info())
}

// buildOptions validates the request and assembles the search options.  The
// request context is the cancellation path: when the coordinator abandons the
// stream (top-k satisfied, client gone, hedge lost), the replica's search
// unwinds with it instead of burning CPU on an abandoned query.
func (s *Server) buildOptions(r *http.Request, req *StreamRequest) ([]byte, core.Options, error) {
	matrix := score.ByName(req.Matrix)
	if matrix == nil {
		return nil, core.Options{}, fmt.Errorf("unknown matrix %q", req.Matrix)
	}
	scheme, err := score.NewScheme(matrix, req.Gap)
	if err != nil {
		return nil, core.Options{}, err
	}
	al := s.eng.Catalog().Alphabet()
	if matrix.Alphabet() != al {
		return nil, core.Options{}, fmt.Errorf("matrix %q is over %s, slice holds %s sequences",
			req.Matrix, matrix.Alphabet().Name(), al.Name())
	}
	query, err := al.Encode(req.Query)
	if err != nil {
		return nil, core.Options{}, err
	}
	if len(query) == 0 || len(query) > s.maxQueryLen {
		return nil, core.Options{}, fmt.Errorf("query length %d outside 1..%d", len(query), s.maxQueryLen)
	}
	if req.MinScore < 1 {
		return nil, core.Options{}, fmt.Errorf("min_score %d must be >= 1", req.MinScore)
	}
	return query, core.Options{
		Scheme:       scheme,
		MinScore:     req.MinScore,
		MaxResults:   req.MaxResults,
		StrictShards: req.Strict,
		Context:      r.Context(),
	}, nil
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	var req StreamRequest
	// The body is one query plus a few scalar fields; cap it before decoding
	// so an oversized request cannot make the replica buffer it.
	limit := int64(s.maxQueryLen) + 4096
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(&req); err != nil {
		status, err := http.StatusBadRequest, fmt.Errorf("invalid JSON: %w", err)
		if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
			status, err = http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", limit)
		}
		httpError(w, status, err)
		return
	}
	query, opts, err := s.buildOptions(r, &req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	var st core.Stats
	opts.Stats = &st
	s.streams.Add(1)
	s.active.Add(1)
	defer s.active.Add(-1)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no")
	// A false Append means the coordinator hung up (lost hedge, satisfied
	// top-k, its own client gone); the request context cancels the search
	// with it.
	ew := ndjson.NewWriter(r.Context(), w, &s.wire)
	var line []byte
	err = s.eng.SearchBounded(query, opts,
		func(h core.Hit) bool {
			line = ndjson.AppendShardHit(line[:0], h.SeqIndex, h.SeqID, h.Score)
			return ew.Append(line)
		},
		func(bound int) bool {
			line = ndjson.AppendShardBound(line[:0], bound)
			return ew.Append(line)
		})
	// Judged before the done event goes out: a coordinator that has read it
	// hangs up at once, which is completion, not cancellation.
	gone := r.Context().Err() != nil
	if !gone {
		done := Event{E: "d", Stats: &st}
		if err != nil {
			done = Event{E: "d", Err: err.Error()}
		}
		if line, err = ndjson.AppendJSON(line[:0], done); err == nil {
			ew.Append(line)
		}
	}
	// The handler must not return before the writer goroutine has.
	if ew.Close() != nil || gone {
		s.cancelled.Add(1)
	}
}

func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
