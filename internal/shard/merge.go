package shard

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/core"
)

// merger performs the k-way, score-ordered online merge of per-shard hit
// streams.  A buffered hit is released as soon as its score is STRICTLY
// above the frontier bound of every shard that is still running — including
// its own, whose bound caps any hit it could still produce.  Bounds only
// decrease, so the released stream is non-increasing in score.
//
// Strictness matters for determinism: with a >= release rule, a hit could be
// released while another shard might still surface an EQUAL score, so the
// interleaving of ties — and, under MaxResults truncation, the tie that
// makes the cut — depended on goroutine timing.  Waiting until every
// unfinished shard's bound is below the score gathers the complete tie set
// in the pending heap first, and the heap then releases ties by global
// sequence index, making the emitted (sequence, score) stream reproducible
// run to run.  Streams cover disjoint sequences, so no sequence arrives twice.
type merger struct {
	bounds     []int  // latest frontier bound per shard
	done       []bool // shard finished (bound is effectively -inf)
	pending    hitQueue
	shardStats []core.Stats
	opts       core.Options
	report     func(core.Hit) bool
	totalRes   int64 // live residue count for E-values
	queryLen   int
	// drop holds the tombstoned global sequence indexes filtered out of the
	// merged stream (nil when the view has no deletions).
	drop map[int]bool
	// stopAt is the all-sequences early-stop count: once stopAt distinct
	// sequences have been emitted nothing the shards still hold can survive,
	// so the stream ends.  It is the LIVE (non-tombstoned) sequence count —
	// using the static global count would over-wait forever on a corpus with
	// deletions.  0 disables the stop.
	stopAt   int
	nEmitted int
	nDone    int
	err      error
	// onBound, when set, publishes the merged stream's own decreasing upper
	// bound: after each event, the strongest score any FUTURE emission can
	// carry (the max bound among unfinished shards, which also caps every
	// buffered pending hit — a pending hit above every unfinished bound would
	// have been released).  This is what lets a shard server re-export its
	// locally merged stream as one more boundable provider stream for a
	// coordinator (Engine.SearchBounded).  Returning false stops the stream
	// like report returning false.
	onBound   func(bound int) bool
	lastBound int
	// slot, when set, is the caller's search slot, given back while the
	// merger waits for an event (Engine.SearchYield).
	slot Slot
	// degraded lists shards quarantined mid-query: their worker failed with a
	// non-fatal error, their bound was dropped and their un-emitted pending
	// hits purged, and the stream completed from the survivors.
	degraded []core.ShardError
}

// newMerger builds a merger over len(bounds) shards, each starting at its
// given initial frontier bound.
func newMerger(bounds []int, opts core.Options, totalRes int64, queryLen int, report func(core.Hit) bool) *merger {
	return &merger{
		bounds:     bounds,
		done:       make([]bool, len(bounds)),
		shardStats: make([]core.Stats, 0, len(bounds)),
		opts:       opts,
		report:     report,
		totalRes:   totalRes,
		queryLen:   queryLen,
		lastBound:  int(^uint(0) >> 1), // MaxInt
	}
}

// run consumes shard events until every shard has completed, emitting hits
// whenever the bounds allow.  When the consumer stops the stream (report
// returns false or MaxResults is reached) it flips cancelled and keeps
// draining so no shard goroutine stays blocked on a send.
func (m *merger) run(events <-chan event, cancelled *atomic.Bool) error {
	stopped := false
	for m.nDone < len(m.bounds) {
		ev, err := m.next(events, stopped)
		if err != nil {
			m.err = err
			stopped = true
			cancelled.Store(true)
		}
		switch ev.kind {
		case evBound:
			if ev.bound < m.bounds[ev.shard] {
				m.bounds[ev.shard] = ev.bound
			}
		case evHit:
			// The hit itself caps everything the shard still holds.
			if ev.hit.Score < m.bounds[ev.shard] {
				m.bounds[ev.shard] = ev.hit.Score
			}
			if !stopped {
				m.pending.push(shardHit{Hit: ev.hit, shard: ev.shard})
			}
		case evDone:
			m.done[ev.shard] = true
			m.nDone++
			m.shardStats = append(m.shardStats, ev.stats)
			if ev.err != nil && m.err == nil {
				if quarantinable(ev.err, m.opts) {
					// Quarantine: drop the shard's bound (done above), purge
					// its buffered hits so only survivor results flow, and
					// keep merging.  The stream stays score-ordered; the
					// caller sees Degraded with this detail.
					m.degraded = append(m.degraded, core.ShardError{
						Shard: ev.shard, Err: ev.err.Error(),
					})
					m.purgeShard(ev.shard)
				} else {
					m.err = ev.err
					stopped = true
					cancelled.Store(true)
				}
			}
		}
		if !stopped && !m.emitReady() {
			stopped = true
			cancelled.Store(true)
		}
		if !stopped && !m.publishBound() {
			stopped = true
			cancelled.Store(true)
		}
	}
	if m.err == nil && len(m.degraded) == len(m.bounds) {
		// No survivors: degradation has nothing to serve from.
		m.err = fmt.Errorf("shard: every shard failed; first: %s", m.degraded[0].Err)
	}
	return m.err
}

// next returns the next stream event.  With a slot to yield, a merger that
// would block gives the slot back for the wait and, unless the stream is
// already stopped, takes it again before the event is merged; a failed take
// is returned with the event.
func (m *merger) next(events <-chan event, stopped bool) (event, error) {
	if m.slot == nil {
		return <-events, nil
	}
	select {
	case ev := <-events:
		return ev, nil
	default:
	}
	m.slot.Give()
	ev := <-events
	if stopped {
		return ev, nil
	}
	return ev, m.slot.Take()
}

// quarantinable reports whether a shard failure should quarantine the shard
// (degraded completion from the survivors) rather than fail the query:
// strict mode fails everything, and context errors stay fatal because they
// mean the query itself is being cancelled, not that one shard broke.
func quarantinable(err error, opts core.Options) bool {
	if opts.StrictShards {
		return false
	}
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// purgeShard drops the un-emitted pending hits of a quarantined shard: the
// degraded stream must contain exactly the surviving shards' results (hits
// already released to the consumer cannot be retracted and stay).
func (m *merger) purgeShard(shard int) {
	kept := m.pending.hits[:0]
	for _, h := range m.pending.hits {
		if h.shard != shard {
			kept = append(kept, h)
		}
	}
	m.pending.hits = kept
	m.pending.reInit()
}

// emitReady releases every pending hit whose score is strictly above the
// bound of every unfinished shard (so no equal-or-stronger hit can still
// arrive).  It returns false when the consumer stopped the stream.
//
//oasis:hotpath
func (m *merger) emitReady() bool {
	for len(m.pending.hits) > 0 {
		top := m.pending.hits[0]
		for s := range m.bounds {
			if !m.done[s] && m.bounds[s] >= top.Score {
				return true // an equal or stronger hit may still arrive; wait
			}
		}
		h := m.pending.pop().Hit
		if m.drop[h.SeqIndex] {
			continue // tombstoned: the sequence was deleted
		}
		m.nEmitted++
		h.Rank = m.nEmitted
		if m.opts.KA != nil {
			h.EValue = m.opts.KA.EValue(h.Score, m.queryLen, m.totalRes)
		}
		if !m.report(h) {
			return false
		}
		if m.opts.MaxResults > 0 && m.nEmitted >= m.opts.MaxResults {
			return false
		}
		if m.stopAt > 0 && m.nEmitted >= m.stopAt {
			// Every live database sequence has been emitted; nothing the
			// shards still hold can survive the tombstone filter (mirrors the single searcher's all-sequences-reported
			// early stop).
			return false
		}
	}
	return true
}

// publishBound forwards the merged stream's effective upper bound to onBound
// whenever it decreases.  The bound is the max frontier bound among
// unfinished shards: per-shard bounds only decrease and finishing only
// removes terms from the max, so the published sequence is non-increasing,
// and emitReady has just released everything above it, so every future
// emission (buffered or still unreported) is capped by it.  It returns false
// when the consumer stops the stream.
func (m *merger) publishBound() bool {
	if m.onBound == nil || m.nDone == len(m.bounds) {
		return true
	}
	b := int(^uint(0)>>1) * -1 // MinInt; below any real bound
	for s := range m.bounds {
		if !m.done[s] && m.bounds[s] > b {
			b = m.bounds[s]
		}
	}
	if b >= m.lastBound {
		return true
	}
	m.lastBound = b
	return m.onBound(b)
}

// shardHit tags a buffered hit with its producing shard so the hits of a
// quarantined shard can be purged from the pending heap.
type shardHit struct {
	core.Hit
	shard int
}

// hitQueue is a max-heap of hits ordered by score (ties: lower global
// sequence index first, so simultaneous buffered ties release
// deterministically).
//
// It is a hand-rolled binary heap rather than container/heap because the
// standard interface moves every element through `any`, boxing one shardHit
// (a 7-word struct) per buffered hit on the serving path; the concrete
// methods keep the pending buffer allocation-free at steady state.
type hitQueue struct {
	hits []shardHit
}

func (q *hitQueue) less(i, j int) bool {
	if q.hits[i].Score != q.hits[j].Score {
		return q.hits[i].Score > q.hits[j].Score
	}
	return q.hits[i].SeqIndex < q.hits[j].SeqIndex
}

// push adds a pending hit; the heap's buffer grows amortized.
//
//oasis:hotpath
func (q *hitQueue) push(h shardHit) {
	q.hits = append(q.hits, h)
	i := len(q.hits) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.hits[i], q.hits[parent] = q.hits[parent], q.hits[i]
		i = parent
	}
}

//oasis:hotpath
func (q *hitQueue) pop() shardHit {
	top := q.hits[0]
	last := len(q.hits) - 1
	q.hits[0] = q.hits[last]
	q.hits[last] = shardHit{} // drop the SeqID reference held by the vacated slot
	q.hits = q.hits[:last]
	q.siftDown(0)
	return top
}

// siftDown restores the heap property below i.
func (q *hitQueue) siftDown(i int) {
	n := len(q.hits)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		best := left
		if right := left + 1; right < n && q.less(right, left) {
			best = right
		}
		if !q.less(best, i) {
			return
		}
		q.hits[i], q.hits[best] = q.hits[best], q.hits[i]
		i = best
	}
}

// reInit re-heapifies after purgeShard rewrote the backing slice in place.
func (q *hitQueue) reInit() {
	for i := len(q.hits)/2 - 1; i >= 0; i-- {
		q.siftDown(i)
	}
}
