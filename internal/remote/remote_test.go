package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultpoint"
	"repro/internal/retry"
	"repro/internal/score"
	"repro/internal/seq"
	"repro/internal/shard"
)

// randomSeqs builds n sequences with GLOBAL ids ("g0", "g1", ...) so a slice
// database over a sub-range reports the same SeqIDs as the full baseline —
// the byte-identity comparison includes identifiers.
func randomSeqs(t *testing.T, rng *rand.Rand, a *seq.Alphabet, n, maxLen int) []seq.Sequence {
	t.Helper()
	letters := a.Letters()
	randStr := func(k int) string {
		b := make([]byte, k)
		for i := range b {
			b[i] = letters[rng.Intn(len(letters))]
		}
		return string(b)
	}
	motif := randStr(6 + rng.Intn(8))
	out := make([]seq.Sequence, n)
	for i := range out {
		s := randStr(1 + rng.Intn(maxLen))
		if rng.Intn(2) == 0 {
			pos := rng.Intn(len(s) + 1)
			s = s[:pos] + motif + s[pos:]
		}
		sq, err := seq.NewSequence(a, "g"+itoa(i), "", s)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = sq
	}
	return out
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func dbOf(t *testing.T, a *seq.Alphabet, seqs []seq.Sequence) *seq.Database {
	t.Helper()
	db, err := seq.NewDatabase(a, seqs)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// sliceFixture is one slice's serving side: engine, wire server, and its
// replica HTTP endpoints.
type sliceFixture struct {
	servers []*Server
	https   []*httptest.Server
	urls    []string
}

// newSliceFixture serves one slice database from `replicas` endpoints (each
// replica gets its own wire Server over a shared engine, so per-replica
// counters stay separate).
func newSliceFixture(t *testing.T, db *seq.Database, engOpts shard.Options, replicas int) *sliceFixture {
	t.Helper()
	eng, err := shard.NewEngine(db, engOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	f := &sliceFixture{}
	for i := 0; i < replicas; i++ {
		srv := NewServer(eng)
		hs := httptest.NewServer(srv)
		t.Cleanup(hs.Close)
		f.servers = append(f.servers, srv)
		f.https = append(f.https, hs)
		f.urls = append(f.urls, hs.URL)
	}
	return f
}

// fastPacing is test-friendly retry pacing with hedging off.
var fastPacing = pacing{
	maxTries: 3,
	policy:   retry.Default(3, time.Millisecond, 5*time.Millisecond),
	noHedge:  true,
}

func openCoordinator(t *testing.T, slices [][]string, pace pacing) *Coordinator {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	co, err := open(ctx, Config{Slices: slices}, pace)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	return co
}

func collect(eng *shard.Engine, query []byte, opts core.Options) ([]core.Hit, core.Stats, error) {
	var st core.Stats
	opts.Stats = &st
	var hits []core.Hit
	err := eng.Search(query, opts, func(h core.Hit) bool {
		hits = append(hits, h)
		return true
	})
	return hits, st, err
}

// TestCoordinatorEquivalence is the tentpole property: across random
// corpora, slice layouts, replica-internal partition modes and query knobs,
// the coordinator's merged stream equals the single-process engine's stream
// hit for hit — indexes, ids, scores, ranks and E-values — and the
// distributed path itself is deterministic: a repeated query reproduces the
// same stream byte for byte.
func TestCoordinatorEquivalence(t *testing.T) {
	cases := map[string]struct {
		a      *seq.Alphabet
		scheme score.Scheme
	}{
		"dna":     {seq.DNA, score.MustScheme(score.UnitDNA(), -1)},
		"protein": {seq.Protein, score.MustScheme(score.ByName("PAM30"), -10)},
	}
	modes := []shard.PartitionMode{shard.PartitionBySequence, shard.PartitionByPrefix}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(4211))
			letters := cfg.a.Letters()
			for trial := 0; trial < 8; trial++ {
				seqs := randomSeqs(t, rng, cfg.a, 6+rng.Intn(24), 80)
				baseDB := dbOf(t, cfg.a, seqs)
				baseline, err := shard.NewEngine(baseDB, shard.Options{Shards: 2 + rng.Intn(3)})
				if err != nil {
					t.Fatal(err)
				}

				// Random contiguous split into 2-3 slices, each replica
				// engine internally sharded in a random partition mode.
				nSlices := 2 + rng.Intn(2)
				cuts := splitPoints(rng, len(seqs), nSlices)
				var slices [][]string
				for s := 0; s < nSlices; s++ {
					sliceDB := dbOf(t, cfg.a, seqs[cuts[s]:cuts[s+1]])
					fx := newSliceFixture(t, sliceDB, shard.Options{
						Shards:    1 + rng.Intn(3),
						Partition: modes[rng.Intn(2)],
					}, 1)
					slices = append(slices, fx.urls)
				}
				co := openCoordinator(t, slices, fastPacing)

				for q := 0; q < 3; q++ {
					qb := make([]byte, 3+rng.Intn(14))
					for i := range qb {
						qb[i] = letters[rng.Intn(len(letters))]
					}
					query := cfg.a.MustEncode(string(qb))
					opts := core.Options{
						Scheme:   cfg.scheme,
						MinScore: 1 + rng.Intn(10),
					}
					if params, err := score.Params(cfg.scheme.Matrix, nil); err == nil && rng.Intn(2) == 0 {
						ka := params
						opts.KA = &ka
					}
					want, _, err := collect(baseline, query, opts)
					if err != nil {
						t.Fatal(err)
					}
					got, st, err := collect(co.Engine(), query, opts)
					if err != nil {
						t.Fatalf("trial %d query %d: coordinator: %v", trial, q, err)
					}
					if st.Degraded {
						t.Fatalf("trial %d query %d: unexpected degraded stream", trial, q)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d query %d: coordinator stream differs\n got: %+v\nwant: %+v", trial, q, got, want)
					}
					again, _, err := collect(co.Engine(), query, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(again, got) {
						t.Fatalf("trial %d query %d: distributed stream is not reproducible\n got: %+v\nthen: %+v", trial, q, got, again)
					}

					// Top-k truncation: the score sequence must equal the
					// full baseline's prefix and every reported hit must be
					// in the full set (per-shard truncation may cut a tie
					// set at a different member, as in the single-process
					// engine's own equivalence property).
					if len(want) > 1 {
						topOpts := opts
						topOpts.MaxResults = 1 + rng.Intn(len(want))
						topK, _, err := collect(co.Engine(), query, topOpts)
						if err != nil {
							t.Fatal(err)
						}
						checkTruncated(t, trial, topK, want, topOpts.MaxResults)
					}
				}
				baseline.Close()
			}
		})
	}
}

// checkTruncated verifies a truncated stream against the full baseline:
// same length, same score sequence, every hit present in the full set.
func checkTruncated(t *testing.T, trial int, got, baseline []core.Hit, k int) {
	t.Helper()
	if k > len(baseline) {
		k = len(baseline)
	}
	if len(got) != k {
		t.Fatalf("trial %d top-k: got %d hits, want %d", trial, len(got), k)
	}
	type key struct {
		seqIndex, score int
		seqID           string
	}
	valid := map[key]int{}
	for _, h := range baseline {
		valid[key{h.SeqIndex, h.Score, h.SeqID}]++
	}
	for i, h := range got {
		if h.Score != baseline[i].Score {
			t.Fatalf("trial %d top-k: score %d at position %d, baseline has %d", trial, h.Score, i, baseline[i].Score)
		}
		if h.Rank != i+1 {
			t.Fatalf("trial %d top-k: rank %d at position %d", trial, h.Rank, i)
		}
		if valid[key{h.SeqIndex, h.Score, h.SeqID}] == 0 {
			t.Fatalf("trial %d top-k: hit %+v not in the full result set", trial, h)
		}
	}
}

// splitPoints cuts n items into k non-empty contiguous ranges.
func splitPoints(rng *rand.Rand, n, k int) []int {
	cuts := []int{0}
	for i := 1; i < k; i++ {
		lo := cuts[i-1] + 1
		hi := n - (k - i)
		cuts = append(cuts, lo+rng.Intn(hi-lo+1))
	}
	return append(cuts, n)
}

// fixture for the fault tests: one slice, two replicas, plus a baseline
// engine over the same corpus for exact comparison.
func faultFixture(t *testing.T, seed int64) (*sliceFixture, *shard.Engine, []byte, core.Options) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a := seq.DNA
	seqs := randomSeqs(t, rng, a, 40, 120)
	db := dbOf(t, a, seqs)
	// The baseline shares the slice engines' layout (same db, same shard
	// count), so the comparison below is byte-identical.
	baseline, err := shard.NewEngine(db, shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { baseline.Close() })
	fx := newSliceFixture(t, db, shard.Options{Shards: 2}, 2)
	query := a.MustEncode("ACGTACGTACG")
	opts := core.Options{Scheme: score.MustScheme(score.UnitDNA(), -1), MinScore: 4}
	return fx, baseline, query, opts
}

// TestStreamAcceptsRetiredLiveBandField: a coordinator built before the
// live-band switch left the wire still sends "disable_live_band":true.  A
// replica answers that body 200 with exactly the hit and bound lines of the
// same request without the field.
func TestStreamAcceptsRetiredLiveBandField(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	db := dbOf(t, seq.DNA, randomSeqs(t, rng, seq.DNA, 30, 120))
	// One internal shard: the replica's bound sequence is then deterministic.
	fx := newSliceFixture(t, db, shard.Options{Shards: 1}, 1)
	body, err := json.Marshal(StreamRequest{Query: "ACGTACGTACG", Matrix: score.UnitDNA().Name(), Gap: -1, MinScore: 4})
	if err != nil {
		t.Fatal(err)
	}
	legacy := append([]byte(`{"disable_live_band":true,`), body[1:]...)
	stream := func(body []byte) []string {
		t.Helper()
		resp, err := http.Post(fx.urls[0]+PathStream, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", body, resp.StatusCode, data)
		}
		var events []string
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, `{"e":"h"`) || strings.HasPrefix(line, `{"e":"b"`) {
				events = append(events, line)
			}
		}
		return events
	}
	want := stream(body)
	if len(want) < 4 {
		t.Fatalf("fixture too small: %d hit and bound lines", len(want))
	}
	if got := stream(legacy); !reflect.DeepEqual(got, want) {
		t.Fatalf("the retired field changed the stream\n got: %q\nwant: %q", got, want)
	}
}

// TestFailoverMidStream kills replica A's connection mid-stream (after 3
// event lines, via the remote.stream faultpoint) and verifies the resumed
// stream from replica B is exactly the baseline stream: no duplicated and no
// missing hits, and the failover counters moved.
func TestFailoverMidStream(t *testing.T) {
	fx, baseline, query, opts := faultFixture(t, 99)
	want, _, err := collect(baseline, query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 4 {
		t.Fatalf("fixture too small: %d baseline hits", len(want))
	}
	co := openCoordinator(t, [][]string{fx.urls}, fastPacing)

	defer faultpoint.Reset()
	faultpoint.Enable(faultpoint.SiteRemoteStream, faultpoint.Spec{
		Mode: faultpoint.ModeError, Match: fx.urls[0], After: 3, Times: 1,
	})
	got, st, err := collect(co.Engine(), query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if faultpoint.Fired(faultpoint.SiteRemoteStream) != 1 {
		t.Fatalf("fault did not fire (stream had too few events?)")
	}
	if st.Degraded {
		t.Fatal("failover must complete the stream non-degraded")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("failover stream differs\n got: %+v\nwant: %+v", got, want)
	}
	m := co.Metrics()
	if m.Retries < 1 || m.Failovers < 1 {
		t.Fatalf("expected retry+failover counters to move, got %+v", m)
	}
	health := co.Health()[0].Replicas
	if health[0].TotalFailures < 1 {
		t.Fatalf("replica A should have a recorded failure, got %+v", health[0])
	}
}

// TestDialFaultFailsOver fails replica A's dial outright (the remote.dial
// faultpoint — a dead or unreachable replica at connect time, before any
// event flows) and verifies the query completes from replica B with the exact
// baseline stream and a recorded failure against replica A.  Regression test
// for the faultsite analyzer finding that remote.dial was a registered but
// never-exercised failpoint.
func TestDialFaultFailsOver(t *testing.T) {
	fx, baseline, query, opts := faultFixture(t, 41)
	want, _, err := collect(baseline, query, opts)
	if err != nil {
		t.Fatal(err)
	}
	co := openCoordinator(t, [][]string{fx.urls}, fastPacing)

	defer faultpoint.Reset()
	faultpoint.Enable(faultpoint.SiteRemoteDial, faultpoint.Spec{
		Mode: faultpoint.ModeError, Match: fx.urls[0],
	})
	got, st, err := collect(co.Engine(), query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if faultpoint.Fired(faultpoint.SiteRemoteDial) < 1 {
		t.Fatal("dial fault did not fire")
	}
	if st.Degraded {
		t.Fatal("a single dead replica must fail over, not degrade")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stream after dial fault differs\n got: %+v\nwant: %+v", got, want)
	}
	health := co.Health()[0].Replicas
	if health[0].TotalFailures < 1 {
		t.Fatalf("replica A should have a recorded dial failure, got %+v", health[0])
	}
}

// TestCorruptWireFailsOver flips a bit in an event line (remote.stream
// corrupt mode); the decoder rejects the line, the attempt fails, and the
// stream still completes identically from the other replica.
func TestCorruptWireFailsOver(t *testing.T) {
	fx, baseline, query, opts := faultFixture(t, 77)
	want, _, err := collect(baseline, query, opts)
	if err != nil {
		t.Fatal(err)
	}
	co := openCoordinator(t, [][]string{fx.urls}, fastPacing)

	defer faultpoint.Reset()
	faultpoint.Enable(faultpoint.SiteRemoteStream, faultpoint.Spec{
		Mode: faultpoint.ModeCorrupt, Match: fx.urls[0], After: 1, Times: 1,
	})
	got, st, err := collect(co.Engine(), query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if faultpoint.Fired(faultpoint.SiteRemoteStream) != 1 {
		t.Fatal("corruption did not fire")
	}
	if st.Degraded {
		t.Fatal("corruption must not degrade the stream, only fail the attempt")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stream after corruption differs\n got: %+v\nwant: %+v", got, want)
	}
}

// TestDeadSliceDegrades kills every replica of the LAST slice: the
// non-strict query completes as a degraded stream identical to the
// surviving slice's baseline (last-slice offsets don't shift the survivors),
// and a strict query fails outright.
func TestDeadSliceDegrades(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := seq.DNA
	seqs := randomSeqs(t, rng, a, 30, 100)
	cut := 18
	liveDB := dbOf(t, a, seqs[:cut])
	deadDB := dbOf(t, a, seqs[cut:])
	liveFx := newSliceFixture(t, liveDB, shard.Options{Shards: 2}, 1)
	deadFx := newSliceFixture(t, deadDB, shard.Options{Shards: 2}, 2)

	survivor, err := shard.NewEngine(liveDB, shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer survivor.Close()

	pace := fastPacing
	pace.maxTries = 2
	co := openCoordinator(t, [][]string{liveFx.urls, deadFx.urls}, pace)
	for _, hs := range deadFx.https {
		hs.Close()
	}

	query := a.MustEncode("ACGTACGTAC")
	opts := core.Options{Scheme: score.MustScheme(score.UnitDNA(), -1), MinScore: 4}
	want, _, err := collect(survivor, query, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := collect(co.Engine(), query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Degraded || len(st.ShardErrors) == 0 {
		t.Fatalf("expected degraded stats, got %+v", st)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("degraded stream differs from survivor baseline\n got: %+v\nwant: %+v", got, want)
	}
	if co.Metrics().SliceFailures < 1 {
		t.Fatalf("expected slice failure counter to move, got %+v", co.Metrics())
	}

	strict := opts
	strict.StrictShards = true
	_, _, err = collect(co.Engine(), query, strict)
	if err == nil {
		t.Fatal("strict query over a dead slice must fail")
	}

	// Readiness surface: the dead slice's replicas must be marked down
	// after the failed attempts.
	downs := 0
	for _, r := range co.Health()[1].Replicas {
		if r.State != "up" {
			downs++
		}
	}
	if downs == 0 {
		t.Fatalf("dead slice reports no unhealthy replicas: %+v", co.Health()[1])
	}
}

// TestHedgeWinsAndCancelsLoser makes replica A's stream endpoint slow: the
// fixed hedge trigger fires, replica B answers first and wins, and A —
// the loser — observes its request context cancelled (its wire server
// counts the cancelled stream).
func TestHedgeWinsAndCancelsLoser(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := seq.DNA
	seqs := randomSeqs(t, rng, a, 25, 100)
	db := dbOf(t, a, seqs)
	eng, err := shard.NewEngine(db, shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	srvA := NewServer(eng)
	srvB := NewServer(eng)
	slowA := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == PathStream {
			// Stall the first byte long enough for the hedge to fire; the
			// loser's cancelled context then aborts this handler's search.
			select {
			case <-time.After(400 * time.Millisecond):
			case <-r.Context().Done():
			}
		}
		srvA.ServeHTTP(w, r)
	}))
	defer slowA.Close()
	fastB := httptest.NewServer(srvB)
	defer fastB.Close()

	pace := fastPacing
	pace.noHedge = false
	pace.hedgeAfter = 15 * time.Millisecond
	co := openCoordinator(t, [][]string{{slowA.URL, fastB.URL}}, pace)

	baseline, err := shard.NewEngine(db, shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer baseline.Close()
	query := a.MustEncode("ACGTACGTACG")
	opts := core.Options{Scheme: score.MustScheme(score.UnitDNA(), -1), MinScore: 4}
	want, _, err := collect(baseline, query, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := collect(co.Engine(), query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("hedged stream differs\n got: %+v\nwant: %+v", got, want)
	}
	m := co.Metrics()
	if m.Hedges < 1 || m.HedgeWins < 1 {
		t.Fatalf("expected a winning hedge, got %+v", m)
	}
	// The loser is cancelled asynchronously; wait for A's handler to
	// observe it.
	deadline := time.Now().Add(5 * time.Second)
	for srvA.Stats().Cancelled == 0 && srvA.Stats().Active > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if st := srvA.Stats(); st.Active != 0 {
		t.Fatalf("loser stream still active on A: %+v", st)
	}
}

// TestHedgeSuppressedByFaultpoint verifies the remote.hedge error spec keeps
// the hedge from launching.
func TestHedgeSuppressedByFaultpoint(t *testing.T) {
	fx, _, query, opts := faultFixture(t, 31)
	pace := fastPacing
	pace.noHedge = false
	pace.hedgeAfter = time.Nanosecond // would hedge immediately
	co := openCoordinator(t, [][]string{fx.urls}, pace)

	defer faultpoint.Reset()
	faultpoint.Enable(faultpoint.SiteRemoteHedge, faultpoint.Spec{Mode: faultpoint.ModeError})
	if _, _, err := collect(co.Engine(), query, opts); err != nil {
		t.Fatal(err)
	}
	if m := co.Metrics(); m.Hedges != 0 {
		t.Fatalf("hedge should have been suppressed, got %+v", m)
	}
	if faultpoint.Fired(faultpoint.SiteRemoteHedge) == 0 {
		t.Fatal("hedge faultpoint never consulted")
	}
}

// TestCancellationPropagates covers both early-stop paths: MaxResults
// truncation and consumer-context cancellation must drain the replicas'
// server-side streams rather than leaving searches running.
func TestCancellationPropagates(t *testing.T) {
	fx, _, query, opts := faultFixture(t, 53)
	co := openCoordinator(t, [][]string{fx.urls}, fastPacing)

	topK := opts
	topK.MaxResults = 2
	hits, _, err := collect(co.Engine(), query, topK)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Fatalf("MaxResults=2 returned %d hits", len(hits))
	}

	ctx, cancel := context.WithCancel(context.Background())
	cOpts := opts
	cOpts.Context = ctx
	n := 0
	err = co.Engine().Search(query, cOpts, func(core.Hit) bool {
		n++
		cancel()
		return true
	})
	// A tiny corpus can finish before the cancellation lands, so a nil
	// error is acceptable; anything else must be the context's error.
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled search returned %v after %d hits", err, n)
	}
	cancel()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		active := int64(0)
		for _, s := range fx.servers {
			active += s.Stats().Active
		}
		if active == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("replica streams still active after cancellation")
}

// TestStreamBadRequestIsPermanent verifies a replica-rejected request fails
// fast (no attempt-budget burn) with the replica's complaint.
func TestStreamBadRequestIsPermanent(t *testing.T) {
	fx, _, query, opts := faultFixture(t, 13)
	co := openCoordinator(t, [][]string{fx.urls}, fastPacing)
	bad := opts
	bad.MinScore = 0 // engine-level validation happens replica-side too
	_, _, err := collect(co.Engine(), query, bad)
	if err == nil {
		t.Fatal("expected error")
	}
	if m := co.Metrics(); m.Retries != 0 {
		t.Fatalf("permanent failure should not retry, got %+v", m)
	}
	if !strings.Contains(err.Error(), "min_score") {
		t.Fatalf("error should carry the replica's complaint, got %v", err)
	}
}

// TestConcurrentFanOutStress drives concurrent queries with mid-stream
// disconnects through the coordinator; run with -race this exercises the
// hedge/failover/cancel plumbing for data races.
func TestConcurrentFanOutStress(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := seq.DNA
	seqs := randomSeqs(t, rng, a, 36, 90)
	cut := 20
	fx1 := newSliceFixture(t, dbOf(t, a, seqs[:cut]), shard.Options{Shards: 2}, 2)
	fx2 := newSliceFixture(t, dbOf(t, a, seqs[cut:]), shard.Options{Shards: 2}, 2)
	baseline, err := shard.NewEngine(dbOf(t, a, seqs), shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer baseline.Close()

	pace := fastPacing
	pace.noHedge = false
	pace.hedgeAfter = 2 * time.Millisecond // hedge aggressively under -race
	co := openCoordinator(t, [][]string{fx1.urls, fx2.urls}, pace)

	query := a.MustEncode("ACGTACGTAC")
	opts := core.Options{Scheme: score.MustScheme(score.UnitDNA(), -1), MinScore: 4}
	want, _, err := collect(baseline, query, opts)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for q := 0; q < 5; q++ {
				switch (g + q) % 3 {
				case 0: // full stream, must match baseline
					got, _, err := collect(co.Engine(), query, opts)
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(got, want) {
						errs <- errorsNew("concurrent stream diverged")
						return
					}
				case 1: // top-k early stop
					topK := opts
					topK.MaxResults = 1 + q
					if _, _, err := collect(co.Engine(), query, topK); err != nil {
						errs <- err
						return
					}
				default: // mid-stream disconnect
					ctx, cancel := context.WithCancel(context.Background())
					cOpts := opts
					cOpts.Context = ctx
					err := co.Engine().Search(query, cOpts, func(core.Hit) bool {
						cancel()
						return true
					})
					cancel()
					if err != nil && !errors.Is(err, context.Canceled) {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func errorsNew(s string) error { return errors.New(s) }
