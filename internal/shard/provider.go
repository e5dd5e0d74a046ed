package shard

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/seq"
)

// Provider is one opaque boundable hit stream the k-way merger can consume in
// place of a local index shard: Stream must report hits in decreasing score
// order with sequence indexes LOCAL to the provider's part of the corpus
// (the engine places them, as it does a local shard's), and publish
// decreasing upper bounds on every score it can still report, exactly as
// core.SearchStream does for a local shard.  Returning false from either
// callback cancels the stream (Stream then returns nil); opts.Context, when
// set, cancels it from outside.  opts.Stats, when non-nil, should receive the
// provider's work counters before Stream returns.  opts.KA is nil on entry:
// E-values are attached by the consuming merger with the coordinator's
// global totals.
//
// The motivating implementation is internal/remote's replicated shard-server
// client, which is how the shard boundary crosses the network: a coordinator
// engine built over N remote providers merges their streams through the same
// strict-release rule as a single-process engine, so the merged output is
// identical.
type Provider interface {
	Stream(query []byte, opts core.Options, hit func(core.Hit) bool, bound func(int) bool) error
}

// ProviderSet assembles a provider-backed engine: one provider per slice of
// the corpus, in global order.
type ProviderSet struct {
	// Alphabet is the corpus's residue alphabet.
	Alphabet *seq.Alphabet
	// Providers are the per-slice streams and Parts the slices they stream:
	// slice s holds Parts[s].Sequences sequences, numbered on after the
	// slices before it.  A part's Catalog may be nil: the engine needs only
	// the counts, which drive E-values and early stops.
	Providers []Provider
	Parts     []Part
	// Closers are resources the engine takes ownership of; Engine.Close
	// releases them.
	Closers []io.Closer
}

// NewEngineFromProviders assembles an engine whose shards are opaque provider
// streams instead of local indexes.  Searches fan out to every provider and
// merge with the same strict-release rule as local shards, so the output
// stream is ordered and tie-broken exactly like a local multi-shard engine's.
// Provider failures quarantine the provider's slice through the standard
// degraded-completion path (core.Options.StrictShards opts out).  Every
// provider streams at once.
func NewEngineFromProviders(set ProviderSet) (*Engine, error) {
	if set.Alphabet == nil || len(set.Parts) != len(set.Providers) {
		return nil, fmt.Errorf("shard: provider set needs an alphabet and one part per provider")
	}
	r := &root{parts: set.Parts, closers: set.Closers}
	first := 0
	for i, p := range set.Providers {
		r.base = append(r.base, baseShard{provider: p, first: first})
		first += set.Parts[i].Sequences
	}
	return r.finish(set.Alphabet)
}
