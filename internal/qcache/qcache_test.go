package qcache

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/faultpoint"
	"repro/internal/score"
)

func testKey(query string, minScore int) Key {
	return NewKey([]byte(query), core.Options{
		Scheme:   score.MustScheme(score.ByName("PAM30"), -10),
		MinScore: minScore,
	}, 0)
}

func testEntry(nHits int, complete bool) *Entry {
	e := &Entry{Complete: complete}
	for i := 0; i < nHits; i++ {
		e.Hits = append(e.Hits, core.Hit{SeqIndex: i, SeqID: fmt.Sprintf("S%d", i), Score: 100 - i, Rank: i + 1})
	}
	return e
}

func TestKeyNormalization(t *testing.T) {
	scheme := score.MustScheme(score.ByName("PAM30"), -10)
	ka, err := score.Params(scheme.Matrix, nil)
	if err != nil {
		t.Fatal(err)
	}
	var st core.Stats
	base := core.Options{Scheme: scheme, MinScore: 7, KA: &ka}
	// MaxResults, Stats, Scratch and the cancellation handle must not split keys.
	kaCopy := ka
	same := core.Options{Scheme: scheme, MinScore: 7, KA: &kaCopy, MaxResults: 3, Stats: &st, Context: context.Background()}
	if NewKey([]byte("AC"), base, 0) != NewKey([]byte("AC"), same, 0) {
		t.Fatal("result-equivalent options produced different keys")
	}
	// Everything result-affecting must split keys.
	for name, other := range map[string]core.Options{
		"min-score": {Scheme: scheme, MinScore: 8, KA: &ka},
		"no-ka":     {Scheme: scheme, MinScore: 7},
		"gap":       {Scheme: score.MustScheme(score.ByName("PAM30"), -11), MinScore: 7, KA: &ka},
		"matrix":    {Scheme: score.MustScheme(score.ByName("BLOSUM62"), -10), MinScore: 7, KA: &ka},
	} {
		if NewKey([]byte("AC"), base, 0) == NewKey([]byte("AC"), other, 0) {
			t.Fatalf("%s: result-affecting option did not change the key", name)
		}
	}
	if NewKey([]byte("AC"), base, 0) == NewKey([]byte("AD"), base, 0) {
		t.Fatal("different queries share a key")
	}
	// A generation bump must split keys: streams from an older index state
	// become unreachable instead of being served stale.
	if NewKey([]byte("AC"), base, 1) == NewKey([]byte("AC"), base, 2) {
		t.Fatal("different index generations share a key")
	}
}

func TestGetServesTruncationRules(t *testing.T) {
	c := New(1 << 20)
	complete := testKey("COMPLETE", 5)
	c.Put(complete, testEntry(4, true))
	truncated := testKey("TRUNCATED", 5)
	c.Put(truncated, testEntry(4, false))

	// A complete entry serves any k, including "all".
	for _, k := range []int{0, 1, 4, 10} {
		if _, ok := c.Get(complete, k); !ok {
			t.Fatalf("complete entry refused maxResults=%d", k)
		}
	}
	// A truncated 4-hit entry serves only 1..4.
	for k, want := range map[int]bool{0: false, 1: true, 4: true, 5: false} {
		if _, ok := c.Get(truncated, k); ok != want {
			t.Fatalf("truncated entry Get(maxResults=%d) = %v, want %v", k, ok, want)
		}
	}
	// Re-putting with a complete stream upgrades the entry.
	c.Put(truncated, testEntry(6, true))
	if e, ok := c.Get(truncated, 0); !ok || len(e.Hits) != 6 {
		t.Fatalf("upgraded entry Get = (%v, %v)", e, ok)
	}
}

func TestLRUEvictionBoundsBytes(t *testing.T) {
	budget := int64(64 << 10)
	c := New(budget)
	for i := 0; i < 4096; i++ {
		c.Put(testKey(fmt.Sprintf("Q%04d", i), 5), testEntry(8, true))
	}
	st := c.Stats()
	if st.Bytes > st.MaxBytes {
		t.Fatalf("cache holds %d bytes over its %d budget", st.Bytes, st.MaxBytes)
	}
	if st.Evictions == 0 {
		t.Fatalf("no evictions after overfilling: %+v", st)
	}
	if st.Entries == 0 {
		t.Fatalf("eviction emptied the cache entirely: %+v", st)
	}
	// Oversized entries are refused outright rather than wiping the stripe.
	big := testEntry(10000, true)
	c.Put(testKey("HUGE", 5), big)
	if _, ok := c.Get(testKey("HUGE", 5), 0); ok {
		t.Fatal("an entry larger than the stripe budget was cached")
	}
}

func TestPutCounters(t *testing.T) {
	c := New(1 << 20)
	k := testKey("COUNT", 5)
	c.Put(k, testEntry(2, false))
	c.Put(k, testEntry(4, true)) // same key: a replacement, not an insertion
	c.Put(testKey("OTHER", 5), testEntry(2, true))
	st := c.Stats()
	if st.Insertions != 2 {
		t.Fatalf("Insertions = %d, want 2 (replacement counted as insertion?)", st.Insertions)
	}
	if st.Replacements != 1 {
		t.Fatalf("Replacements = %d, want 1", st.Replacements)
	}
	// An oversized stream is refused and counted, leaving residency alone.
	before := c.Stats().Bytes
	c.Put(testKey("HUGE", 5), testEntry(100000, true))
	st = c.Stats()
	if st.Oversized != 1 {
		t.Fatalf("Oversized = %d, want 1", st.Oversized)
	}
	if st.Bytes != before {
		t.Fatalf("oversized Put changed residency: %d -> %d", before, st.Bytes)
	}
	if st.Insertions != 2 || st.Replacements != 1 {
		t.Fatalf("oversized Put leaked into Insertions/Replacements: %+v", st)
	}
}

func TestEntryFractionBoundsAdmission(t *testing.T) {
	budget := int64(numShards * 100 << 10)
	half := NewWithFraction(budget, 0.5)
	full := NewWithFraction(budget, 1.0)
	if half.MaxEntryBytes() >= full.MaxEntryBytes() {
		t.Fatalf("fraction 0.5 budget %d not below 1.0 budget %d", half.MaxEntryBytes(), full.MaxEntryBytes())
	}
	if want := full.MaxEntryBytes() / 2; half.MaxEntryBytes() != want {
		t.Fatalf("fraction 0.5 budget = %d, want %d", half.MaxEntryBytes(), want)
	}
	// A stream between the two budgets is admitted at 1.0 but refused at 0.5.
	nHits := int(half.MaxEntryBytes()/hitSize) + 10
	k := testKey("MID", 5)
	half.Put(k, testEntry(nHits, true))
	full.Put(k, testEntry(nHits, true))
	if _, ok := half.Get(k, 0); ok {
		t.Fatal("stream above the fraction budget was admitted")
	}
	if _, ok := full.Get(k, 0); !ok {
		t.Fatal("stream within the full-stripe budget was refused")
	}
	if half.Stats().Oversized != 1 {
		t.Fatalf("Oversized = %d, want 1", half.Stats().Oversized)
	}
	// Out-of-range fractions fall back to the default rather than disabling
	// admission or overflowing a stripe.
	if got := NewWithFraction(budget, -1).MaxEntryBytes(); got != New(budget).MaxEntryBytes() {
		t.Fatalf("invalid fraction budget = %d, want default %d", got, New(budget).MaxEntryBytes())
	}
}

func TestLRUKeepsRecentlyUsed(t *testing.T) {
	c := New(numShards * 2048) // tiny: a few entries per stripe
	hot := testKey("HOT", 5)
	c.Put(hot, testEntry(2, true))
	for i := 0; i < 512; i++ {
		if _, ok := c.Get(hot, 0); !ok {
			t.Fatalf("hot entry evicted after %d inserts despite constant use", i)
		}
		c.Put(testKey(fmt.Sprintf("COLD%04d", i), 5), testEntry(2, true))
	}
}

// Injected cache faults must show up in InjectedFaults, not Misses: a fault
// drill that failed every Get used to crater the reported hit rate even
// though the cache itself was healthy.
func TestInjectedFaultsNotCountedAsMisses(t *testing.T) {
	defer faultpoint.Reset()
	c := New(1 << 20)
	k := testKey("FAULT", 5)
	c.Put(k, testEntry(2, true))
	if _, ok := c.Get(k, 0); !ok {
		t.Fatal("warm entry missed before the drill")
	}
	faultpoint.Enable(faultpoint.SiteCacheGet, faultpoint.Spec{Mode: faultpoint.ModeError})
	for i := 0; i < 10; i++ {
		if _, ok := c.Get(k, 0); ok {
			t.Fatal("Get served during an error drill")
		}
	}
	faultpoint.Reset()
	st := c.Stats()
	if st.InjectedFaults != 10 {
		t.Fatalf("InjectedFaults = %d, want 10", st.InjectedFaults)
	}
	if st.Misses != 0 {
		t.Fatalf("injected faults leaked into Misses (%d): drills corrupt the hit rate", st.Misses)
	}
	if st.HitRate != 1 {
		t.Fatalf("HitRate = %v during drill, want 1 (only the one real hit counted)", st.HitRate)
	}
}

func TestSingleFlight(t *testing.T) {
	c := New(1 << 20)
	key := testKey("FLIGHT", 5)
	leader, _ := c.Begin(key)
	if !leader {
		t.Fatal("first Begin is not the leader")
	}
	follower, done := c.Begin(key)
	if follower {
		t.Fatal("second Begin also elected leader")
	}
	select {
	case <-done:
		t.Fatal("waiter woke before the leader finished")
	default:
	}
	c.End(key)
	<-done // must be closed now
	// After End, the next Begin elects a fresh leader.
	leader2, _ := c.Begin(key)
	if !leader2 {
		t.Fatal("Begin after End did not elect a leader")
	}
	c.End(key)
	if got := c.Stats().FlightWaits; got != 1 {
		t.Fatalf("FlightWaits = %d, want 1", got)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(256 << 10)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				key := testKey(fmt.Sprintf("Q%d", (g*31+i)%64), 5)
				if e, ok := c.Get(key, 0); ok {
					if len(e.Hits) == 0 || e.Hits[0].Rank != 1 {
						t.Errorf("corrupt entry %+v", e.Hits)
						return
					}
					continue
				}
				if leader, done := c.Begin(key); leader {
					c.Put(key, testEntry(3, true))
					c.End(key)
				} else {
					<-done
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits == 0 || st.Insertions == 0 {
		t.Fatalf("concurrent workload saw no cache traffic: %+v", st)
	}
}
