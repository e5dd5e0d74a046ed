package main

import (
	"context"
	"errors"
	"sort"
	"sync"
)

// admission is the per-client fair admission controller in front of the
// warm engine: a deficit-weighted round-robin scheduler over client keys
// (X-Client-ID header, falling back to the remote address) that bounds how
// many requests run concurrently and decides WHO runs next when slots are
// scarce.
//
// The previous design was a plain FIFO over the engine's worker pool, so a
// single greedy client streaming maximal /batch requests could queue
// thousands of queries ahead of every interactive /search user.  Under DRR
// each waiting client owns its own FIFO; freed slots visit the client ring
// round-robin, paying each visited client a fixed quantum of credit, and a
// request is admitted when its client's accumulated credit covers the
// request's cost (1 per query, so a 256-query batch costs 256 while an
// interactive search costs 1).  A batch-heavy client therefore waits many
// rounds per admission while single-query clients are admitted almost every
// round — weighted fairness without starving anyone.
//
// Each client's waiting queue is bounded; requests beyond it are rejected
// immediately (HTTP 429) so a misbehaving client sheds its own load instead
// of growing server memory.
type admission struct {
	slots     int // concurrent admissions
	quantum   int // DRR credit per ring visit
	maxQueued int // per-client waiting-queue bound

	mu       sync.Mutex
	active   int
	byKey    map[string]*admClient
	ring     []*admClient // clients with waiters, round-robin order
	admitted int64
	rejected int64
}

type admClient struct {
	key      string
	waiters  []*admWaiter
	deficit  int
	active   int
	admitted int64
	rejected int64
	inRing   bool
}

type admWaiter struct {
	cost      int
	granted   chan struct{}
	cancelled bool
}

// errAdmissionQueueFull is returned when a client's waiting queue is at its
// bound; handlers map it to HTTP 429.
var errAdmissionQueueFull = errors.New("admission queue full for this client")

// defaultAdmissionQuantum is the DRR credit added per ring visit.  One
// quantum admits eight single-query requests per round; a full batch of
// maxBatch queries needs maxBatch/8 rounds of credit.
const defaultAdmissionQuantum = 8

func newAdmission(slots, maxQueued int) *admission {
	if slots < 1 {
		slots = 1
	}
	if maxQueued < 1 {
		maxQueued = 1
	}
	return &admission{
		slots:     slots,
		quantum:   defaultAdmissionQuantum,
		maxQueued: maxQueued,
		byKey:     map[string]*admClient{},
	}
}

// acquire admits one request of the given cost for the client key, blocking
// until a slot is granted or ctx is done.  On success it returns a release
// function that MUST be called exactly once when the request finishes (it is
// safe to call via defer; extra calls are ignored).
func (a *admission) acquire(ctx context.Context, key string, cost int) (release func(), err error) {
	if cost < 1 {
		cost = 1
	}
	a.mu.Lock()
	c := a.byKey[key]
	if c == nil {
		c = &admClient{key: key}
		a.byKey[key] = c
	}
	// Fast path: free slot and nobody queued anywhere — no queue-jumping
	// is possible, so admit immediately.
	if a.active < a.slots && len(a.ring) == 0 {
		a.admitLocked(c)
		a.mu.Unlock()
		return a.releaseFunc(c), nil
	}
	if len(c.waiters) >= a.maxQueued {
		c.rejected++
		a.rejected++
		a.dropIfIdleLocked(c)
		a.mu.Unlock()
		return nil, errAdmissionQueueFull
	}
	w := &admWaiter{cost: cost, granted: make(chan struct{})}
	c.waiters = append(c.waiters, w)
	if !c.inRing {
		c.inRing = true
		a.ring = append(a.ring, c)
	}
	a.mu.Unlock()

	select {
	case <-w.granted:
		return a.releaseFunc(c), nil
	case <-ctx.Done():
		a.mu.Lock()
		select {
		case <-w.granted:
			// The grant raced the cancellation; accept it — the handler
			// will notice ctx and finish (and release) immediately.
			a.mu.Unlock()
			return a.releaseFunc(c), nil
		default:
			// Remove the waiter immediately so it stops counting toward
			// the client's maxQueued bound: a client whose queued requests
			// all timed out must not keep drawing 429s on fresh ones.
			w.cancelled = true
			for i, qw := range c.waiters {
				if qw == w {
					c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
					break
				}
			}
			a.dropIfIdleLocked(c)
		}
		a.mu.Unlock()
		return nil, ctx.Err()
	}
}

// admitLocked books one admission for c (a.mu held).
func (a *admission) admitLocked(c *admClient) {
	a.active++
	c.active++
	c.admitted++
	a.admitted++
}

// releaseFunc builds the once-only release closure for an admitted request.
func (a *admission) releaseFunc(c *admClient) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			a.mu.Lock()
			a.active--
			c.active--
			a.dispatchLocked()
			a.dropIfIdleLocked(c)
			a.mu.Unlock()
		})
	}
}

// dispatchLocked grants freed slots to waiting clients in DRR order (a.mu
// held).  Each ring visit pays the client one quantum of credit and admits
// from its FIFO while the credit covers the head's cost; clients left with
// waiters rotate to the back of the ring, so cheap (interactive) requests
// are admitted every round while expensive batches accumulate credit over
// several rounds.
func (a *admission) dispatchLocked() {
	for a.active < a.slots && len(a.ring) > 0 {
		c := a.ring[0]
		a.ring = a.ring[1:]
		c.pruneCancelled()
		if len(c.waiters) == 0 {
			c.inRing = false
			c.deficit = 0
			a.dropIfIdleLocked(c)
			continue
		}
		c.deficit += a.quantum
		for a.active < a.slots {
			c.pruneCancelled()
			if len(c.waiters) == 0 || c.deficit < c.waiters[0].cost {
				break
			}
			w := c.waiters[0]
			c.waiters = c.waiters[1:]
			c.deficit -= w.cost
			a.admitLocked(c)
			close(w.granted)
		}
		if len(c.waiters) == 0 {
			c.inRing = false
			c.deficit = 0 // classic DRR: credit does not survive an empty queue
			a.dropIfIdleLocked(c)
		} else {
			a.ring = append(a.ring, c)
		}
	}
}

// pruneCancelled drops abandoned waiters from the head of the queue.
func (c *admClient) pruneCancelled() {
	for len(c.waiters) > 0 && c.waiters[0].cancelled {
		c.waiters = c.waiters[1:]
	}
}

// dropIfIdleLocked forgets a client with no active requests and no waiters,
// bounding the tracking map under many distinct client keys (a.mu held).
// Clients still in the dispatch ring are kept; the next dispatch visit
// removes the ring entry and retries the drop.
func (a *admission) dropIfIdleLocked(c *admClient) {
	if c.active == 0 && len(c.waiters) == 0 && !c.inRing {
		delete(a.byKey, c.key)
	}
}

// admissionClientSnapshot is one client's row in the /metrics admission
// section.
type admissionClientSnapshot struct {
	Client   string `json:"client"`
	Queued   int    `json:"queued"`
	Active   int    `json:"active"`
	Admitted int64  `json:"admitted"`
	Rejected int64  `json:"rejected"`
}

// admissionSnapshot is the /metrics view of the admission controller.
type admissionSnapshot struct {
	Slots    int   `json:"slots"`
	Active   int   `json:"active"`
	Admitted int64 `json:"admitted"`
	Rejected int64 `json:"rejected"`
	// Clients lists every currently tracked client (active or queued),
	// sorted by key for stable output.
	Clients []admissionClientSnapshot `json:"clients"`
}

func (a *admission) snapshot() admissionSnapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := admissionSnapshot{Slots: a.slots, Active: a.active, Admitted: a.admitted, Rejected: a.rejected}
	for _, c := range a.byKey {
		queued := 0
		for _, w := range c.waiters {
			if !w.cancelled {
				queued++
			}
		}
		s.Clients = append(s.Clients, admissionClientSnapshot{
			Client: c.key, Queued: queued, Active: c.active, Admitted: c.admitted, Rejected: c.rejected,
		})
	}
	sort.Slice(s.Clients, func(i, j int) bool { return s.Clients[i].Client < s.Clients[j].Client })
	return s
}
