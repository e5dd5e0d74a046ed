package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval of a traced run.  Spans of one request share
// Query; Parent is the ID of the span that caused this one (0 for a root).
//
// Client spans nest in time: request ⊃ admit+first_byte, first_hit, stream.
// Ladder spans are one call each into a layer's public function for the
// same query, replayed one rung after another, so they do not nest in time:
// each is a root span whose Base names the rung below it, and a rung's self
// time is its duration minus the duration of its Base span for that query.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Query  string `json:"query"`
	Name   string `json:"name"`
	// Base, on ladder spans, names the rung this one is measured against.
	Base    string  `json:"base,omitempty"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its ID.  base is empty on client spans.
func (t *tracer) add(parent int, query, name, base string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Query: query, Name: name, Base: base,
		StartUs: float64(start.Sub(t.t0).Nanoseconds()) / 1e3,
		EndUs:   float64(end.Sub(t.t0).Nanoseconds()) / 1e3,
	})
	return id
}

// write dumps every span to path as one JSON document.
func (t *tracer) write(path string, res *runResult) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Commit   string `json:"commit"`
		Spans    []span `json:"spans"`
	}{res.Workload, res.Seed, res.Commit, t.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
