package oasis

import (
	"context"
	"time"

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

// CoordinatorOptions configures a coordinator engine.
type CoordinatorOptions struct {
	// Workers bounds concurrent slice streams per query (0 = one per slice).
	Workers int
	// BatchWorkers and CacheBytes configure the warm engine in front of the
	// fan-out exactly as in EngineOptions.  A coordinator-side result cache
	// short-circuits repeated queries before any network I/O.
	BatchWorkers int
	CacheBytes   int64
	// DialTimeout and HeaderTimeout bound each ATTEMPT's connection
	// establishment and time-to-response-headers (defaults 2s / 10s).  They
	// are deliberately distinct from any per-query deadline applied around
	// the whole fan-out: a slow dial fails one attempt (triggering failover),
	// not the query.
	DialTimeout   time.Duration
	HeaderTimeout time.Duration
	// MaxAttempts bounds stream attempts per slice per query, counting the
	// first try (0 = max(3, 2 x replicas)).
	MaxAttempts int
	// HedgeAfter is the fixed hedge trigger: when a replica has not produced
	// its first event within it, a second request races on another replica
	// and the first byte wins (0 = adaptive, tracking a p95 of observed
	// first-event latencies).
	HedgeAfter time.Duration
	// DisableHedge turns hedging off entirely.
	DisableHedge bool
}

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
// warm engine.  slices[s] lists slice s's replica addresses ("host:port" or
// full URLs); slice order defines the global sequence numbering.  ctx bounds
// only the startup info fetches.
//
// The returned engine is immutable from this process (Insert/Delete/Compact
// return an error): writes belong to the serving processes that own the
// slices.
func OpenCoordinator(ctx context.Context, slices [][]string, opts CoordinatorOptions) (*Coordinator, error) {
	co, err := remote.Open(ctx, remote.Config{
		Slices:        slices,
		Workers:       opts.Workers,
		DialTimeout:   opts.DialTimeout,
		HeaderTimeout: opts.HeaderTimeout,
		MaxAttempts:   opts.MaxAttempts,
		HedgeAfter:    opts.HedgeAfter,
		DisableHedge:  opts.DisableHedge,
	})
	if err != nil {
		return nil, err
	}
	ieng, err := engine.NewFromShardEngine(co.Engine(), engine.Options{
		BatchWorkers: opts.BatchWorkers,
		CacheBytes:   opts.CacheBytes,
	})
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
