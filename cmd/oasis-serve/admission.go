package main

import (
	"errors"
	"sync"
	"time"

	"repro/oasis"
)

// admission bounds how many search and batch requests one client (X-Client-ID
// header, falling back to the remote address) has in flight, and hands each
// request its client's oasis.Turn.  Nothing waits here: fairness is decided
// at the engine's search slots, where a client holds one place in the queue
// however many requests it has in flight, and a query that waits there longer
// than the Turn's bound ends with oasis.ErrSaturated.  A client past
// maxInFlightPerClient requests is rejected at once (HTTP 429), so it sheds
// its own load instead of growing server memory.
type admission struct {
	// slotWait is each client Turn's bound on a query's wait for a slot.
	slotWait time.Duration
	mu       sync.Mutex
	clients  map[string]*admClient
	counts   admissionSnapshot
}

type admClient struct {
	inFlight int
	turn     *oasis.Turn
}

// admissionSnapshot is the /metrics view of the admission bound.
type admissionSnapshot struct {
	Active   int   `json:"active"`
	Admitted int64 `json:"admitted"`
	Rejected int64 `json:"rejected"`
}

// errAdmissionQueueFull is returned when a client already has its bound of
// requests in flight; handlers map it to HTTP 429.
var errAdmissionQueueFull = errors.New("too many requests in flight for this client")

// acquire books one request for the client key and returns the client's Turn
// with a release function that must be called exactly once when the request
// ends, however it ends.
func (a *admission) acquire(key string) (*oasis.Turn, func(), error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	c := a.clients[key]
	if c == nil {
		c = &admClient{turn: oasis.NewTurn(a.slotWait)}
		a.clients[key] = c
	}
	if c.inFlight >= maxInFlightPerClient {
		a.counts.Rejected++
		return nil, nil, errAdmissionQueueFull
	}
	c.inFlight++
	a.counts.Active++
	a.counts.Admitted++
	return c.turn, func() {
		a.mu.Lock()
		defer a.mu.Unlock()
		a.counts.Active--
		if c.inFlight--; c.inFlight == 0 {
			delete(a.clients, key)
		}
	}, nil
}

func (a *admission) snapshot() admissionSnapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.counts
}
