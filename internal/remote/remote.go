// Package remote promotes the shard boundary to the network: a shard SERVER
// (Server) exports one engine's merged hit stream over HTTP as (hit, bound)
// events, and a coordinator-side CLIENT (Client) consumes such a stream as
// one more shard.Provider, so a Coordinator over N remote shard slices merges
// them through the exact same strict-release k-way merge as a single-process
// engine — and produces a byte-identical globally ordered stream.
//
// # Topology
//
// The served corpus is split into sequence-disjoint SLICES, contiguous runs
// as seq.PartitionDatabase cuts them: slice s owns the global sequence index
// range starting at the sum of the preceding slices' sequence counts.  Each slice
// is served by one or more REPLICA processes (oasis-serve -shard-server),
// each holding a full copy of the slice's index; however a replica's engine
// shards its slice internally, the exported stream is its merged, canonical
// (score desc, sequence asc) order (shard.Engine.SearchBounded).  The
// coordinator owns the global sequence index space: its engine places each
// slice's hits by the slice's offset, as it places a local shard's, and
// attaches E-values with the global residue totals, so the fan-out is
// invisible to clients.
//
// # Wire protocol
//
// POST /oasis/shard/stream with a StreamRequest body returns an NDJSON event
// stream.  An event is never held back waiting for a later one — the first
// bound leaves the moment the search publishes it, which is what the hedge
// race times — but events produced together travel in one write
// (internal/ndjson):
//
//	{"e":"b","v":57}                        frontier bound: no future hit of
//	                                        this stream exceeds score 57
//	{"e":"h","seq":12,"id":"SYN|B0012","score":55}
//	                                        hit (seq is slice-local; scores
//	                                        decrease down the stream)
//	{"e":"d","stats":{...}}                 end of stream, with work counters
//	{"e":"d","err":"..."}                   terminal failure
//
// GET /oasis/shard/info returns the slice's Info (sequence/residue counts,
// alphabet, internal shard layout) — the coordinator fetches it at startup to
// lay out the global index space.
//
// # Robustness
//
// The client retries connect/read failures with jittered capped backoff
// (internal/retry) and fails over across replicas; a mid-stream failure
// resumes the deterministic slice stream on another replica by skipping the
// hits already forwarded (the last skipped hit must match the last forwarded
// one, or the replica is treated as inconsistent and the attempt fails).
// Tail-slow replicas are hedged: if the first event has not arrived within a
// latency-percentile budget, a second request races on the next replica and
// the first responder wins, the loser's request context cancelled.  When
// every replica of a slice is down, the slice's provider errors out and the
// coordinator engine quarantines it through the standard degraded-completion
// path (bound dropped, pending hits purged, Stats.Degraded set; StrictShards
// opts out).  Early top-k termination and client disconnects propagate:
// the provider callbacks' false return cancels the in-flight HTTP request,
// which cancels the replica's server-side search context.
//
// The pacing is fixed, not configured: max(3, 2 x replicas) stream attempts
// per slice, jittered 5 ms..250 ms backoff between them, hedging at the p95
// of observed first-event latencies, a 2 s dial and a 10 s wait for response
// headers.  Only this package's tests pace a client differently (pacing).
//
// Fault injection for all of the above lives at the faultpoint sites
// remote.dial, remote.stream and remote.hedge.
package remote

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/seq"
)

// Endpoint paths of the shard transport.
const (
	// PathStream is the boundable hit-stream endpoint (POST).
	PathStream = "/oasis/shard/stream"
	// PathInfo is the slice-description endpoint (GET).
	PathInfo = "/oasis/shard/info"
)

// StreamRequest is the JSON body of POST /oasis/shard/stream.  The scoring
// scheme travels by matrix NAME so coordinator and replicas need no shared
// configuration beyond the built-in matrix registry.  A replica ignores
// fields it does not know, so the search switch older coordinators still send
// (which never changed a result) is accepted and has no effect.
type StreamRequest struct {
	// Query is the residue string (letters over the slice's alphabet).
	Query string `json:"query"`
	// Matrix and Gap select the scoring scheme (score.ByName).
	Matrix string `json:"matrix"`
	Gap    int    `json:"gap"`
	// MinScore is the report threshold (>= 1).
	MinScore int `json:"min_score"`
	// MaxResults truncates the slice's stream to its k strongest sequences
	// when > 0 (a valid per-slice prune: the global top k is a subset of the
	// union of per-slice top k's).
	MaxResults int `json:"max_results,omitempty"`
	// Strict forwards core.Options.StrictShards: the replica fails the
	// stream when one of its internal shards fails, instead of completing a
	// silently thinner stream the coordinator could not tell apart from a
	// healthy one (the degraded flag in the done event's stats covers the
	// non-strict case).
	Strict bool `json:"strict,omitempty"`
}

// Event is one NDJSON line of a shard stream.  E is "b" (bound), "h" (hit)
// or "d" (done).  The server writes "h" and "b" lines with
// ndjson.AppendShardHit and ndjson.AppendShardBound (a "b" line is exactly
// {"e":"b","v":N}) and "d" lines by encoding this struct.  The client reads
// those two hot shapes by hand (decodeEvent); every other line — "d" events,
// escaped or non-ASCII ids, the older "b" spelling that also carried
// "seq":0,"score":0, the older "h" spelling that also carried alignment ends
// "qe" and "te" — is decoded into this struct by encoding/json, which skips
// keys it has no field for, and the hand path accepts only lines
// encoding/json reads identically.
type Event struct {
	E string `json:"e"`
	// V is the frontier bound of "b" events: no future hit of this stream
	// scores above it.
	V int `json:"v,omitempty"`
	// Hit fields ("h" events).  Seq is the slice-LOCAL sequence index; the
	// coordinator's engine adds the slice offset.  Rank and EValue are not carried:
	// both are global properties the coordinator's merger assigns.
	Seq   int    `json:"seq"`
	ID    string `json:"id,omitempty"`
	Score int    `json:"score"`
	// Done fields ("d" events): the slice search's work counters (including
	// Degraded/ShardErrors when the replica lost internal shards) or its
	// terminal error.
	Stats *core.Stats `json:"stats,omitempty"`
	Err   string      `json:"err,omitempty"`
}

// Info describes one shard slice, served at GET /oasis/shard/info.
type Info struct {
	// Sequences and Residues are the slice's corpus totals; the coordinator
	// lays slices out contiguously in slice order, so slice s's global
	// sequence offset is the sum of the preceding slices' Sequences.
	Sequences int   `json:"sequences"`
	Residues  int64 `json:"residues"`
	// Alphabet names the residue alphabet ("protein" or "dna"); all slices
	// of one deployment must agree.
	Alphabet string `json:"alphabet"`
	// Shards is the replica's internal shard count (diagnostic; the exported
	// stream does not depend on it).
	Shards int `json:"shards"`
}

// alphabetByName resolves an Info.Alphabet name to the singleton alphabet
// instance (pointer identity matters: scheme/alphabet checks compare
// pointers).
func alphabetByName(name string) (*seq.Alphabet, error) {
	switch name {
	case seq.Protein.Name():
		return seq.Protein, nil
	case seq.DNA.Name():
		return seq.DNA, nil
	}
	return nil, fmt.Errorf("remote: unknown alphabet %q", name)
}
