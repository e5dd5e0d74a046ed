// Package atomicstate exercises the atomicstate analyzer: raw sync/atomic
// functions are forbidden, the typed wrappers are not.
package atomicstate

import "sync/atomic"

type counter struct {
	n   int64
	hot atomic.Int64
}

func (c *counter) inc() int64 {
	atomic.AddInt64(&c.n, 1)        // want `raw atomic.AddInt64`
	return atomic.LoadInt64(&c.n) + // want `raw atomic.LoadInt64`
		c.hot.Add(1)
}
