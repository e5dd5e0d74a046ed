package oasis

import (
	"context"

	"repro/internal/engine"
	"repro/internal/remote"
)

// Distributed serving: a Coordinator is a warm Engine whose shards are remote
// shard servers.  Each serving process exports one sequence-disjoint slice of
// the corpus over internal/remote's wire protocol (oasis-serve -shard-server);
// the coordinator fans every query out to one replica per slice and merges the
// (hit, bound) event streams through the same strict-release rule a
// single-process engine uses, so the merged stream is identical to searching
// the concatenated corpus locally.  Robustness is client-side: retry with
// jittered capped backoff, failover across a slice's replicas with
// resume-by-count replay, hedged requests against tail-slow replicas, and —
// when every replica of a slice is down — degraded completion from the
// surviving slices through the standard quarantine path (strict mode opts
// out).

type (
	// SliceInfo describes one remote slice as reported by its servers.
	SliceInfo = remote.Info
	// ReplicaHealth is one replica's health snapshot: "up", "degraded"
	// (recent failures) or "down" (consecutive failures past the threshold;
	// de-prioritized, re-tried only when the whole slice is down).
	ReplicaHealth = remote.ReplicaHealth
	// SliceHealth groups the replica health snapshots of one slice.
	SliceHealth = remote.SliceHealth
	// RemoteMetrics aggregates the coordinator's fan-out robustness counters
	// (attempts, retries, failovers, hedges, hedge wins, slice failures).
	RemoteMetrics = remote.MetricsSnapshot
)

// CoordinatorOptions describes the fan-out, and Slices is all of it: each
// slice's replica addresses ("host:port" or full URLs), in the slice order
// that defines the global sequence numbering.  The robustness settings are
// constants of internal/remote — 2 s dial and 10 s response-header timeouts
// per ATTEMPT (distinct from any per-query deadline around the whole fan-out:
// a slow dial fails one attempt and triggers failover, not the query), max(3,
// 2 x replicas) attempts per slice per query, jittered 5..250 ms backoff, and
// a hedge onto a second replica once the first has been silent for the p95 of
// observed first-event latencies.
type CoordinatorOptions = remote.Config

// Coordinator owns a warm Engine over remote shard-server slices plus the
// health and robustness telemetry of the fan-out.  Build one with
// OpenCoordinator; cmd/oasis-serve -coordinator wraps it in the standard HTTP
// front end (admission control, result cache, NDJSON streaming).
type Coordinator struct {
	eng *Engine
	co  *remote.Coordinator
}

// OpenCoordinator connects to every slice's replica set, lays out the global
// sequence index space from the slices' reported sizes, and assembles the
// warm engine.  Of warm only BatchWorkers and CacheBytes apply (a
// coordinator-side result cache short-circuits repeated queries before any
// network I/O); its index-construction fields must be zero.  ctx bounds only
// the startup info fetches.
//
// The returned engine is immutable (Insert/Delete/Compact return an error),
// and so is the corpus behind it: shard servers serve their slice read-only
// and mount no write endpoint.  A distributed corpus changes by rebuilding a
// slice's index (BuildShardedDiskIndex, oasis-build) and redeploying its
// replicas.
func OpenCoordinator(ctx context.Context, fanout CoordinatorOptions, warm EngineOptions) (*Coordinator, error) {
	co, err := remote.Open(ctx, fanout)
	if err != nil {
		return nil, err
	}
	ieng, err := engine.NewFromShardEngine(co.Engine(), warm)
	if err != nil {
		co.Close()
		return nil, err
	}
	return &Coordinator{eng: &Engine{eng: ieng}, co: co}, nil
}

// Engine returns the warm engine over the fan-out; its result streams are
// identical to a single-process engine over the concatenated slices.
func (c *Coordinator) Engine() *Engine { return c.eng }

// Infos returns the per-slice descriptions fetched at startup.
func (c *Coordinator) Infos() []SliceInfo { return c.co.Infos() }

// Health snapshots every slice's replica health for readiness reporting.
func (c *Coordinator) Health() []SliceHealth { return c.co.Health() }

// RemoteMetrics snapshots the fan-out robustness counters aggregated across
// all slices.
func (c *Coordinator) RemoteMetrics() RemoteMetrics { return c.co.Metrics() }

// Close drains in-flight queries, closes the provider engine and releases the
// transport's idle connections.
func (c *Coordinator) Close() error {
	err := c.eng.Close()
	if cerr := c.co.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}
