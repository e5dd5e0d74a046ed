package shard

import (
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/score"
)

// stealPool serves frontier seeds to the prefix-mode shard workers on demand
// (core.SearchSeedsDynamic) instead of handing each worker its static LPT
// batch up front.  Every worker drains its OWN shard's seeds first — hottest
// (highest f) first, so its stream pops in decreasing f exactly as the static
// path did — and, once both its seed list and its priority queue are empty,
// STEALS the coldest seed from the victim shard with the most estimated work
// remaining (seq.PartitionByPrefix's exact per-prefix-group suffix counts,
// via core.Seed.Cost).  The static split balances total suffix counts, but a
// query's work per prefix group can be wildly skewed (a motif's high-scoring
// prefixes do nearly all the column work); stealing keeps every worker busy
// until the whole frontier is consumed.
//
// # Why the stolen stream stays correct
//
// The merger (merge.go) requires each shard stream to report hits in
// decreasing score order under a decreasing published bound, and the
// searcher's per-sequence dedup must never swallow a hit another shard would
// have reported at a higher or equal score.  Both follow from the claim
// rules:
//
//   - Own seeds are claimed whenever the hottest remaining one is at least
//     the worker's queue top, so the searcher never pops below a pending own
//     seed's f — its published bound always covers its own backlog.
//   - A steal is allowed only when the thief's queue is empty and the seed's
//     f is STRICTLY below limit, the lowest queue top the thief has ever
//     popped.  Its stream therefore keeps decreasing, and — because a
//     searcher that reported a sequence at score v must have popped at top v,
//     so limit <= v — any duplicate the thief's per-sequence dedup suppresses
//     in a stolen subtree scores strictly below the copy it already reported.
//     The merger would have dropped that duplicate anyway.
//
// The merged (sequence, score, rank, E-value) stream is therefore exactly the
// no-steal stream (TestStealingStreamEquivalence).  What stealing does NOT
// preserve is the merger's duplicate COPY set: a stolen subtree escapes its
// owner's per-sequence suppression, so extra equal-best copies of a sequence
// can reach the merger, and which co-optimal alignment endpoint survives
// deduplication becomes timing-dependent.  Engines that need byte-stable
// endpoints run with Options.NoSteal; everything a client ranks on is stable
// either way.  Because a stolen seed may still out-f a thief's own seeds, the
// merger's initial per-shard bounds must all start at the global maximum
// seed f.
type stealPool struct {
	mu sync.Mutex
	// lists[s] holds shard s's seeds sorted by f descending; the live window
	// is [head[s], tail[s]) — owners claim from head (hottest), thieves from
	// tail (coldest), so the owner's in-order claim scan is never disturbed.
	lists [][]core.Seed
	head  []int
	tail  []int
	// cost[s] is the estimated work remaining in shard s's window (suffix
	// counts of the unclaimed prefix groups); thieves pick the costliest
	// victim.
	cost    []int64
	pending int
	steals  int64
}

// newStealPool takes ownership of the frontier's seed lists (they are
// re-sorted in place, hottest first).
func newStealPool(seeds [][]core.Seed) *stealPool {
	p := &stealPool{
		lists: seeds,
		head:  make([]int, len(seeds)),
		tail:  make([]int, len(seeds)),
		cost:  make([]int64, len(seeds)),
	}
	for s, list := range seeds {
		sort.SliceStable(list, func(a, b int) bool { return list[a].F() > list[b].F() })
		p.tail[s] = len(list)
		for i := range list {
			p.cost[s] += list[i].Cost()
		}
		p.pending += len(list)
	}
	return p
}

// claimFor is shard s's core.SearchSeedsDynamic claim hook: topF is the
// worker's current queue top (score.NegInf when empty) and limit the lowest
// top it has ever popped (MaxInt before the first pop).  It returns the next
// seed the worker must push, or nil to proceed with its queue.
func (p *stealPool) claimFor(s, topF, limit int) *core.Seed {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.head[s] < p.tail[s] {
		seed := &p.lists[s][p.head[s]]
		if seed.F() >= topF {
			p.head[s]++
			p.take(s, seed)
			return seed
		}
		return nil // the queue outranks the backlog; pop first
	}
	if topF != score.NegInf || p.pending == 0 {
		return nil
	}
	// Idle: steal the coldest seed of the costliest victim whose coldest
	// seed is strictly below limit (see the type comment for why strictly).
	victim := -1
	var victimCost int64
	for v := range p.lists {
		if v == s || p.head[v] >= p.tail[v] {
			continue
		}
		if p.lists[v][p.tail[v]-1].F() >= limit {
			continue
		}
		if victim < 0 || p.cost[v] > victimCost {
			victim, victimCost = v, p.cost[v]
		}
	}
	if victim < 0 {
		return nil
	}
	p.tail[victim]--
	seed := &p.lists[victim][p.tail[victim]]
	p.take(victim, seed)
	p.steals++
	return seed
}

// take books a claimed seed out of shard owner's window.
func (p *stealPool) take(owner int, seed *core.Seed) {
	p.cost[owner] -= seed.Cost()
	p.pending--
}

// empty reports whether every seed has been claimed.
func (p *stealPool) empty() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pending == 0
}

// stealCount returns how many seeds were claimed by a non-owner.
func (p *stealPool) stealCount() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.steals
}

// claimFunc builds shard s's core.SearchSeedsDynamic claim hook, tracking the
// worker's steal limit — the lowest queue top it has ever been offered —
// across calls.  The hook runs on the worker's own goroutine only.
func claimFunc(pool *stealPool, s int) func(topF int) *core.Seed {
	limit := int(^uint(0) >> 1)
	return func(topF int) *core.Seed {
		if topF != score.NegInf && topF < limit {
			limit = topF
		}
		return pool.claimFor(s, topF, limit)
	}
}
