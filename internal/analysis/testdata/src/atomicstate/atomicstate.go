// Package atomicstate exercises the atomicstate analyzer: a field touched by
// sync/atomic anywhere must never be accessed plainly elsewhere.
package atomicstate

import "sync/atomic"

type counter struct {
	n    int64 // accessed atomically in inc: plain access elsewhere races
	cold int64 // never accessed atomically: plain access is fine
}

func (c *counter) inc() {
	atomic.AddInt64(&c.n, 1)
}

func (c *counter) load() int64 {
	return atomic.LoadInt64(&c.n)
}

func (c *counter) bad() int64 {
	return c.n // want `races with it`
}

func (c *counter) reset() {
	// constructor path; the counter is not yet shared
	c.n = 0 // want `races with it`
}

func (c *counter) fine() int64 {
	c.cold++
	return c.cold
}
