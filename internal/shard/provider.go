package shard

import (
	"fmt"
	"io"

	"repro/internal/core"
)

// Provider is one opaque boundable hit stream the k-way merger can consume in
// place of a local index shard: Stream must report hits in decreasing score
// order with GLOBAL sequence indexes, and publish decreasing upper bounds on
// every score it can still report, exactly as core.SearchStream does for a
// local shard.  Returning false from either callback cancels the stream
// (Stream then returns nil); opts.Context, when set, cancels it from outside.
// opts.Stats, when non-nil, should receive the provider's work counters
// before Stream returns.  opts.KA is nil on entry: E-values are attached by
// the consuming merger with the coordinator's global totals.
//
// The motivating implementation is internal/remote's replicated shard-server
// client, which is how the shard boundary crosses the network: a coordinator
// engine built over N remote providers merges their streams through the same
// strict-release rule as a single-process engine, so the merged output is
// identical.
type Provider interface {
	Stream(query []byte, opts core.Options, hit func(core.Hit) bool, bound func(int) bool) error
}

// ProviderSet assembles a provider-backed engine: one sequence-disjoint
// provider per shard slice over a shared global sequence index space, plus
// the global catalog describing that space.
type ProviderSet struct {
	// Providers are the per-slice streams; slice s's hits must carry global
	// sequence indexes disjoint from every other slice's.
	Providers []Provider
	// Catalog is the global sequence catalog (alphabet, totals).  Required:
	// the engine cannot derive it from opaque providers.
	Catalog core.Catalog
	// Closers are resources the engine takes ownership of; Engine.Close
	// releases them.
	Closers []io.Closer
}

// NewEngineFromProviders assembles an engine whose shards are opaque provider
// streams instead of local indexes.  Searches fan out to every provider and
// merge with the same strict-release rule as local shards, so the output
// stream is ordered, deduplicated (not needed — providers are disjoint) and
// tie-broken exactly like a local multi-shard engine's.  Provider failures
// quarantine the provider's slice through the standard degraded-completion
// path (core.Options.StrictShards opts out).  Every provider streams at once.
func NewEngineFromProviders(set ProviderSet) (*Engine, error) {
	if set.Catalog == nil {
		return nil, fmt.Errorf("shard: provider set needs a catalog")
	}
	r := &root{baseCat: set.Catalog, closers: set.Closers}
	for _, p := range set.Providers {
		r.base = append(r.base, baseShard{provider: p})
	}
	return r.finish()
}
