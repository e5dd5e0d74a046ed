package main

import (
	"sync"
	"time"
)

// latencyBounds are the histogram bucket upper bounds in milliseconds
// (exponential, factor 4), chosen to straddle everything from a health
// check to a long batch stream.  The last bucket is unbounded.
var latencyBounds = [...]float64{0.25, 1, 4, 16, 64, 256, 1024, 4096}

// latencyHistogram accumulates request latencies for one endpoint.  All
// methods are safe for concurrent use.
type latencyHistogram struct {
	mu      sync.Mutex
	count   int64
	sumMs   float64
	maxMs   float64
	buckets [len(latencyBounds) + 1]int64
}

// observe records one request duration.  The conversion keeps nanosecond
// precision: truncating to whole microseconds first (as an earlier version
// did) biased sub-microsecond observations to exactly 0 and pushed
// durations just over a bucket bound back onto the bound, so boundary
// buckets over-counted.
func (h *latencyHistogram) observe(d time.Duration) {
	ms := float64(d.Nanoseconds()) / 1e6
	i := 0
	for i < len(latencyBounds) && ms > latencyBounds[i] {
		i++
	}
	h.mu.Lock()
	h.count++
	h.sumMs += ms
	if ms > h.maxMs {
		h.maxMs = ms
	}
	h.buckets[i]++
	h.mu.Unlock()
}

// latencyBucket is one histogram bucket in the /metrics JSON: the count of
// requests that took at most LeMs milliseconds (cumulative, so a bucket
// includes everything faster than its bound; the +Inf bucket equals Count).
type latencyBucket struct {
	LeMs  float64 `json:"le_ms"`
	Count int64   `json:"count"`
}

// latencySnapshot is the JSON form of one endpoint's histogram.
type latencySnapshot struct {
	Count   int64           `json:"count"`
	SumMs   float64         `json:"sum_ms"`
	MeanMs  float64         `json:"mean_ms"`
	MaxMs   float64         `json:"max_ms"`
	Buckets []latencyBucket `json:"buckets"`
}

// snapshot renders the histogram with cumulative bucket counts.
func (h *latencyHistogram) snapshot() latencySnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := latencySnapshot{Count: h.count, SumMs: h.sumMs, MaxMs: h.maxMs}
	if h.count > 0 {
		s.MeanMs = h.sumMs / float64(h.count)
	}
	var cum int64
	for i, n := range h.buckets {
		cum += n
		le := float64(-1) // +Inf bucket
		if i < len(latencyBounds) {
			le = latencyBounds[i]
		}
		s.Buckets = append(s.Buckets, latencyBucket{LeMs: le, Count: cum})
	}
	return s
}
