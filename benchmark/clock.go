package main

import (
	"sort"
	"sync"
	"time"
)

// The sandbox this benchmark runs in shares its cores with other tenants:
// an idle-machine CPU loop alternates, in bursts of a tenth of a second to
// minutes, between a quiet speed and one 1.3-1.9x slower, and whole runs of
// the same binary differ by +-20% in every wall-clock number.  No bound below
// that is checkable on raw times.  The harness therefore keeps a calibrated
// clock: a goroutine times a fixed arithmetic probe every probePeriod, the
// machine's speed at an instant is probeRefUs over the mean probe time around
// it, and an interval's calibrated duration is its wall time scaled, stretch
// by stretch, by that speed.  The probe is harness code — nothing under test
// can change it — so a change to the servers moves calibrated and raw times
// alike, while host noise moves mostly the raw ones.  Result files carry
// both; BENCHMARK.json's times and rates are calibrated.
const (
	// probeRefUs is the probe's duration on the build machine when quiet:
	// calibrated times read as "milliseconds at that speed".
	probeRefUs = 135.0
	// probePeriod sets how often the machine's speed is sampled; with a
	// ~0.4 ms probe the monitor costs one core about 4%.
	probePeriod = 10 * time.Millisecond
	probeIters  = 100_000
	// smoothSamples is how many samples either side of an instant its speed
	// is averaged over: +-150 ms, about the length of the shortest bursts.
	smoothSamples = 15
)

// probeArr makes the probe touch memory (512 KB, cache-resident) as well as
// the ALU; package-level so the compiler cannot drop the loop.
var probeArr = make([]uint64, 1<<16)

// probe times the fixed loop three times back to back and returns the
// fastest pass in microseconds.  The first pass after a sleep pays for a cold
// core, and the minimum keeps the harness's own load out of the reading: when
// the servers keep both cores busy the probe is sometimes preempted mid-pass,
// and a clock that slowed down for that would flatter whichever build burns
// more CPU.  What is left is how fast the machine runs code that is running.
func probe() float64 {
	var best time.Duration
	for pass := 0; pass < 3; pass++ {
		t := time.Now()
		x := uint64(1)
		for i := 0; i < probeIters; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			probeArr[x>>48] += x
		}
		if d := time.Since(t); pass == 0 || d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / 1e3
}

// speedClock is the running monitor and its samples.
type speedClock struct {
	mu sync.Mutex
	at []time.Time
	// sumUs[k] is the total of the first k probe times, so that the mean
	// over any window of samples is two lookups.
	sumUs []float64
	stop  chan struct{}
	done  chan struct{}
}

// startClock begins sampling; close stops the goroutine and waits for it.
func startClock() *speedClock {
	c := &speedClock{sumUs: []float64{0}, stop: make(chan struct{}), done: make(chan struct{})}
	c.sample()
	go func() {
		defer close(c.done)
		tick := time.NewTicker(probePeriod)
		defer tick.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-tick.C:
				c.sample()
			}
		}
	}()
	return c
}

func (c *speedClock) sample() {
	now := time.Now()
	us := probe()
	c.mu.Lock()
	c.at = append(c.at, now)
	c.sumUs = append(c.sumUs, c.sumUs[len(c.sumUs)-1]+us)
	c.mu.Unlock()
}

func (c *speedClock) close() {
	close(c.stop)
	<-c.done
}

// speedAt is the machine's speed around sample k: probeRefUs over the MEAN
// probe time of the samples within smoothSamples of it.  Times are averaged
// before inverting because slow readings are few and large: the mean of the
// samples' speeds would call a machine that is slow a third of the time
// almost quiet.  Callers hold c.mu.
func (c *speedClock) speedAt(k int) float64 {
	lo, hi := max(0, k-smoothSamples), min(len(c.at)-1, k+smoothSamples)
	return probeRefUs * float64(hi-lo+1) / (c.sumUs[hi+1] - c.sumUs[lo])
}

// calibrated returns the duration of [a, b] on the calibrated clock: each
// stretch between two samples counts at the speed around the sample at its
// start (the stretch before the first sample at the first sample's speed).
func (c *speedClock) calibrated(a, b time.Time) time.Duration {
	if !b.After(a) {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// k is the last sample taken at or before a (0 if none was).
	k := sort.Search(len(c.at), func(i int) bool { return c.at[i].After(a) }) - 1
	if k < 0 {
		k = 0
	}
	var total float64
	for from := a; from.Before(b); k++ {
		to := b
		if k+1 < len(c.at) && c.at[k+1].Before(b) {
			to = c.at[k+1]
		}
		total += float64(to.Sub(from)) * c.speedAt(k)
		from = to
		if k+1 >= len(c.at) {
			break
		}
	}
	return time.Duration(total)
}

// meanSpeed summarises the machine over the run: 1 is the quiet build
// machine, 0.7 a machine running the probe 1.4x slower.
func (c *speedClock) meanSpeed() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return probeRefUs * float64(len(c.at)) / c.sumUs[len(c.at)]
}
