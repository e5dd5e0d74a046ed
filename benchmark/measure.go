package main

import (
	"context"
	"fmt"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/remote"
)

// metricValue is one reported number.  For a time or a rate, Value is on
// the harness's calibrated clock (see clock.go) and Raw is the same quantity
// on the wall clock; for counts and sizes Raw is zero.  N is the sample count
// behind a percentile or median.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Raw   float64 `json:"raw,omitempty"`
	N     int     `json:"n,omitempty"`
}

// interval is one timed stretch; it is kept as two instants so that both its
// wall-clock and its calibrated duration can be taken once the phase is over.
type interval struct{ a, b time.Time }

// calMs and rawMs are an interval's duration on the two clocks.
func (h *harness) calMs(iv interval) float64 { return ms(h.clock.calibrated(iv.a, iv.b)) }
func rawMs(iv interval) float64              { return ms(iv.b.Sub(iv.a)) }

// durations converts intervals to milliseconds on both clocks.
func (h *harness) durations(ivs []interval) (cal, raw []float64) {
	cal, raw = make([]float64, len(ivs)), make([]float64, len(ivs))
	for i, iv := range ivs {
		cal[i], raw[i] = h.calMs(iv), rawMs(iv)
	}
	return cal, raw
}

// timed summarises intervals with f (median, a percentile) on both clocks.
func (h *harness) timed(ivs []interval, unit string, f func([]float64) float64) metricValue {
	cal, raw := h.durations(ivs)
	return metricValue{Value: f(cal), Raw: f(raw), Unit: unit, N: len(ivs)}
}

// rate is count per second over a phase, on both clocks.
func (h *harness) rate(count int, p phaseStat) metricValue {
	iv := interval{p.start, p.end}
	return metricValue{Value: float64(count) / (h.calMs(iv) / 1e3), Raw: float64(count) / (rawMs(iv) / 1e3), Unit: "1/s"}
}

// pct is percentile with p fixed, for timed.
func pct(p float64) func([]float64) float64 {
	return func(v []float64) float64 { return percentile(v, p) }
}

// runResult is one run of one workload, as written to result files.
type runResult struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	// Attempted counts every request of every phase (warm-up included);
	// Failed counts non-2xx replies, error events, streams without a done
	// event, refused or dropped sends and oracle mismatches.
	Attempted     int                    `json:"attempted"`
	Failed        int                    `json:"failed"`
	OracleChecked int                    `json:"oracle_checked"`
	Failures      []string               `json:"failures,omitempty"`
	Phases        []phaseStat            `json:"phases"`
	Metrics       map[string]metricValue `json:"metrics"`
	// procs is every server the run started, for the smoke test's check
	// that none outlives it.
	procs []*proc
}

// serveSnapshot is the part of oasis-serve's /metrics JSON the harness reads.
type serveSnapshot struct {
	Engine struct {
		Pools []struct {
			Requests int64 `json:"requests"`
			Hits     int64 `json:"hits"`
		} `json:"pools"`
		Cache *struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
		Mutable struct {
			Generation   uint64 `json:"generation"`
			Compactions  int64  `json:"compactions"`
			DeltaLayers  int    `json:"delta_layers"`
			LiveResidues int64  `json:"live_residues"`
		} `json:"mutable"`
	} `json:"engine"`
	Latency map[string]struct {
		Count int64   `json:"count"`
		SumMs float64 `json:"sum_ms"`
	} `json:"latency"`
	Admission *struct {
		Admitted int64 `json:"admitted"`
		Rejected int64 `json:"rejected"`
	} `json:"admission"`
	Remote *struct {
		Metrics remote.MetricsSnapshot `json:"metrics"`
	} `json:"remote"`
}

func (h *harness) scrape(ctx context.Context, d *deployment) (serveSnapshot, error) {
	var s serveSnapshot
	err := getJSON(ctx, h.client, "http://"+d.front.addr+"/metrics", &s)
	return s, err
}

// commitID names the code being measured: the git commit when the harness
// runs inside a work tree, "unknown" otherwise (the benchmark driver's
// checkout is not a repository).
func commitID(ctx context.Context, root string) string {
	cmd := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// clientSpans records the client-side spans of one traced request:
// request ⊃ admit+first_byte, first_hit, stream.
func (t *tracer) clientSpans(r *searchReply) {
	root := t.add(0, r.q.id, "request", "", r.sent, r.done)
	t.add(root, r.q.id, "admit+first_byte", "", r.sent, r.firstByte)
	if r.firstHit.IsZero() {
		t.add(root, r.q.id, "stream", "", r.firstByte, r.done)
		return
	}
	t.add(root, r.q.id, "first_hit", "", r.firstByte, r.firstHit)
	t.add(root, r.q.id, "stream", "", r.firstHit, r.done)
}

// soloSamples collects what the one-connection closed loop measures.  On a
// traced run every second block of strata requests is traced (whole blocks,
// because the query order repeats with that period: see stratify), so the two
// halves see the same query mix and the same server state.  traceCost is the
// time spent recording spans: tracing's overhead is reported as that cost per
// traced request over the untraced median, because the difference between the
// two halves' medians is sampling noise (+-6% at ~220 requests each) around it.
type soloSamples struct {
	trace             *tracer
	n                 int
	latency, firstHit []interval
	tracedLatency     []interval
	traceCost         time.Duration
	hits, bytes       int64
}

func (s *soloSamples) add(r *searchReply) {
	s.n++
	s.hits += int64(r.hits)
	s.bytes += int64(r.bytes)
	if s.trace != nil && (s.n-1)/strata%2 == 1 {
		t := time.Now()
		s.trace.clientSpans(r)
		s.tracedLatency = append(s.tracedLatency, interval{r.due, r.done})
		s.traceCost += time.Since(t)
		return
	}
	s.latency = append(s.latency, interval{r.due, r.done})
	if r.hits > 0 {
		s.firstHit = append(s.firstHit, interval{r.due, r.firstHit})
	}
}

// runWorkload sets the workload up (repeatedly: setup_s is the median),
// drives its phases for h.seconds in total, stops the servers, runs the
// oracle and assembles the metrics.
func (h *harness) runWorkload(ctx context.Context, w *workload, root string) (*runResult, error) {
	res := &runResult{
		Workload: w.name, Seed: h.in.seed, Seconds: h.seconds, Traced: h.trace != nil,
		Commit: commitID(ctx, root), GoVersion: runtime.Version(),
		NProc: h.nproc, GOMAXPROCS: runtime.GOMAXPROCS(0),
		Metrics: map[string]metricValue{},
	}
	var (
		setups []interval
		d      *deployment
	)
	for n := 0; n < h.sc.setups; n++ {
		measured := n == h.sc.setups-1
		dep, st, err := h.setUp(ctx, w, n, measured)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", n, err)
		}
		setups = append(setups, interval{st.start, st.end})
		h.phases = append(h.phases, *st)
		if measured {
			d = dep
			break
		}
		if _, err := dep.stop(); err != nil {
			return nil, err
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			_, _ = d.stop()
		}
	}()
	h.next = h.sc.warmup

	before, err := h.scrape(ctx, d)
	if err != nil {
		return nil, err
	}
	total := time.Duration(h.seconds * float64(time.Second))
	share := func(f float64) time.Duration { return time.Duration(float64(total) * f) }
	solo := &soloSamples{trace: h.trace}
	var (
		capacity   metricValue // operations per second in the capacity phase
		open       []interval  // due -> completed, open-loop phase
		lateMs     []float64
		readerRate metricValue
	)
	if w.ingest {
		var writer phaseStat
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			writer, open, lateMs = h.openWriter(ctx, d.front.addr, w.loadRate, share(mixedShare))
		}()
		reader := h.closedLoop(ctx, "mixed-read", d.front.addr, w.top, 1, share(mixedShare), solo.add)
		wg.Wait()
		readerRate = h.rate(reader.Succeeded, reader)
		bulk := h.bulkInsert(ctx, d.front.addr, share(bulkShare))
		capacity = h.rate(bulk.Succeeded, bulk)
		h.phases = append(h.phases, reader, writer, bulk, h.compactAndVerify(ctx, d.front.addr, w.top))
	} else {
		soloSt := h.closedLoop(ctx, "solo", d.front.addr, w.top, 1, share(soloShare), solo.add)
		sat := h.closedLoop(ctx, "sat", d.front.addr, w.top, h.nproc, share(satShare), nil)
		capacity = h.rate(sat.Succeeded, sat)
		var load phaseStat
		load, open, lateMs = h.openLoop(ctx, "load", d.front.addr, w.top, h.nproc, w.loadRate, share(loadShare))
		h.phases = append(h.phases, soloSt, sat, load)
	}
	after, err := h.scrape(ctx, d)
	if err != nil {
		return nil, err
	}
	indexBytes, err := d.indexBytes()
	if err != nil {
		return nil, err
	}
	rss, err := d.stop()
	stopped = true
	if err != nil {
		return nil, err
	}

	checked, failures := h.runChecks()
	res.OracleChecked, res.Failures = checked, failures
	for i := range h.phases {
		p := &h.phases[i]
		p.Seconds = p.end.Sub(p.start).Seconds()
		p.CalibratedSeconds = h.clock.calibrated(p.start, p.end).Seconds()
		res.Attempted += p.Sent
		res.Failed += p.Failed
		if p.FirstError != "" {
			res.Failures = append(res.Failures, p.Name+": "+p.FirstError)
		}
	}
	res.Phases = h.phases
	res.Failed += len(failures)

	m := res.Metrics
	m["setup_s"] = h.timed(setups, "s", func(v []float64) float64 { return median(v) / 1e3 })
	m["search_p50_ms"] = h.timed(solo.latency, "ms", median)
	m["search_p95_ms"] = h.timed(solo.latency, "ms", pct(95))
	m["first_hit_p50_ms"] = h.timed(solo.firstHit, "ms", median)
	m["throughput_ops"] = capacity
	// The open loop's bounded number is its median; its tail (load.p90_ms)
	// is reported per layer only.  An open loop amplifies a stall — one
	// 300 ms hiccup of the host delays every request queued behind it — and
	// this phase holds 80-210 samples, so on this sandbox its p90 spread up
	// to 28% over ten runs of unchanged code and its p95 worse.
	m["load_p50_ms"] = h.timed(open, "ms", median)
	m["peak_rss_mb"] = metricValue{Value: rss, Unit: "MB"}

	if h.trace != nil {
		h.liveMetrics(res, w, liveObservations{
			before: before, after: after, solo: solo, open: open, lateMs: lateMs,
			readerRate: readerRate, indexBytes: indexBytes, slices: len(d.indexDirs),
		})
	}
	return res, nil
}

// liveObservations is what a traced run saw of the live servers from
// outside: /metrics before and after the timed phases, and the client's own
// samples.
type liveObservations struct {
	before, after serveSnapshot
	solo          *soloSamples
	open          []interval
	lateMs        []float64
	readerRate    metricValue
	indexBytes    int64
	// slices is how many index directories the deployment serves.
	slices int
}

// liveMetrics files the per-layer numbers read from the live servers:
// counter deltas over the timed phases.  A layer the workload's servers do
// not have reads 0.
func (h *harness) liveMetrics(res *runResult, w *workload, o liveObservations) {
	m, before, after := res.Metrics, o.before, o.after
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	var poolReq, poolHit int64
	for i, p := range after.Engine.Pools {
		poolReq += p.Requests
		poolHit += p.Hits
		if i < len(before.Engine.Pools) {
			poolReq -= before.Engine.Pools[i].Requests
			poolHit -= before.Engine.Pools[i].Hits
		}
	}
	m["bufferpool.live_hit_ratio"] = metricValue{Value: ratio(float64(poolHit), float64(poolReq)), Unit: "ratio"}
	var cacheHits, cacheLookups int64
	if after.Engine.Cache != nil && before.Engine.Cache != nil {
		cacheHits = after.Engine.Cache.Hits - before.Engine.Cache.Hits
		cacheLookups = cacheHits + after.Engine.Cache.Misses - before.Engine.Cache.Misses
	}
	m["qcache.hit_rate"] = metricValue{Value: ratio(float64(cacheHits), float64(cacheLookups)), Unit: "ratio", N: int(cacheLookups)}
	m["engine.compactions"] = metricValue{Value: float64(after.Engine.Mutable.Compactions), Unit: "count"}
	m["engine.delta_layers"] = metricValue{Value: float64(after.Engine.Mutable.DeltaLayers), Unit: "count"}
	m["engine.generation"] = metricValue{Value: float64(after.Engine.Mutable.Generation), Unit: "count"}
	var rm, rm0 remote.MetricsSnapshot
	if after.Remote != nil && before.Remote != nil {
		rm, rm0 = after.Remote.Metrics, before.Remote.Metrics
	}
	m["remote.attempts_per_stream"] = metricValue{Value: ratio(float64(rm.Attempts-rm0.Attempts), float64(rm.Streams-rm0.Streams)), Unit: "ratio", N: int(rm.Streams - rm0.Streams)}
	m["remote.retries"] = metricValue{Value: float64(rm.Retries - rm0.Retries), Unit: "count"}
	m["remote.hedges"] = metricValue{Value: float64(rm.Hedges - rm0.Hedges), Unit: "count"}
	m["remote.failovers"] = metricValue{Value: float64(rm.Failovers - rm0.Failovers), Unit: "count"}
	sl, sl0 := after.Latency["search"], before.Latency["search"]
	m["serve.server_mean_ms"] = metricValue{Value: ratio(sl.SumMs-sl0.SumMs, float64(sl.Count-sl0.Count)), Unit: "ms", N: int(sl.Count - sl0.Count)}
	var admitted, rejected int64
	if after.Admission != nil && before.Admission != nil {
		admitted = after.Admission.Admitted - before.Admission.Admitted
		rejected = after.Admission.Rejected - before.Admission.Rejected
	}
	m["serve.admitted"] = metricValue{Value: float64(admitted), Unit: "count"}
	m["serve.admission_rejected"] = metricValue{Value: float64(rejected), Unit: "count"}
	m["serve.bytes_per_hit"] = metricValue{Value: ratio(float64(o.solo.bytes), float64(o.solo.hits)), Unit: "B", N: int(o.solo.hits)}
	liveResidues := after.Engine.Mutable.LiveResidues
	if liveResidues == 0 || o.slices > 1 {
		// A coordinator holds no corpus of its own; its slices serve the
		// base corpus unchanged.
		liveResidues = h.in.base.TotalResidues()
	}
	m["index.bytes_per_residue"] = metricValue{Value: ratio(float64(o.indexBytes), float64(liveResidues)), Unit: "B"}
	m["ingest.reader_qps"] = metricValue{Unit: "1/s"}
	if w.ingest {
		m["ingest.reader_qps"] = o.readerRate
	}
	m["load.p90_ms"] = h.timed(o.open, "ms", pct(90))
	m["harness.late_p95_ms"] = metricValue{Value: percentile(o.lateMs, 95), Unit: "ms", N: len(o.lateMs)}
	m["harness.failed_share"] = metricValue{Value: ratio(float64(res.Failed), float64(res.Attempted)), Unit: "ratio", N: res.Attempted}
	m["harness.clock_speed"] = metricValue{Value: h.clock.meanSpeed(), Unit: "ratio"}
	traced := len(o.solo.tracedLatency)
	costMs := ratio(ms(o.solo.traceCost), float64(traced))
	m["harness.trace_overhead_pct"] = metricValue{
		Value: 100 * ratio(costMs, m["search_p50_ms"].Raw), Unit: "%", N: traced,
	}
}

// openWriter is the ingest workload's one open-loop writer: insert i is due
// at start + i/rate and is timed from then, so a stalled insert delays (and
// is charged to) the ones behind it.
func (h *harness) openWriter(ctx context.Context, addr string, rate float64, dur time.Duration) (st phaseStat, latencies []interval, lateMs []float64) {
	start := time.Now()
	st = phaseStat{Name: "mixed-write", start: start}
	gap := time.Duration(float64(time.Second) / rate)
	total := int(rate * dur.Seconds())
	for i := 0; i < total && ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(i) * gap)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		idx, err := h.takeHeldOut()
		if err != nil {
			st.record(err)
			break
		}
		lateMs = append(lateMs, ms(time.Since(due)))
		rec := h.insert(ctx, addr, idx, due)
		st.record(rec.err)
		if rec.err == nil {
			latencies = append(latencies, interval{rec.due, rec.acked})
		}
	}
	st.end = time.Now()
	return st, latencies, lateMs
}

// takeHeldOut hands out the next held-out sequence index.
func (h *harness) takeHeldOut() (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.nextHeldOut >= len(h.in.heldOut) {
		return 0, fmt.Errorf("held-out sequences exhausted after %d inserts", h.nextHeldOut)
	}
	h.nextHeldOut++
	return h.nextHeldOut - 1, nil
}

// bulkInsert is the capacity phase of the ingest workload: one closed-loop
// writer, back-to-back inserts, no readers.
func (h *harness) bulkInsert(ctx context.Context, addr string, dur time.Duration) phaseStat {
	start := time.Now()
	st := phaseStat{Name: "bulk", start: start}
	deadline := start.Add(dur)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		idx, err := h.takeHeldOut()
		if err != nil {
			st.record(err)
			break
		}
		st.record(h.insert(ctx, addr, idx, time.Time{}).err)
	}
	st.end = time.Now()
	return st
}

// verifyQueries is how many full-stream searches follow the final compaction
// to prove every inserted sequence is found with its exact score.
const verifyQueries = 4

// compactAndVerify ends the ingest workload in a defined state — one
// explicit /compact — and then searches the grown corpus: full streams, so
// every inserted sequence that qualifies must appear with its
// Smith-Waterman score, plus one top-k.
func (h *harness) compactAndVerify(ctx context.Context, addr string, top int) phaseStat {
	st := phaseStat{Name: "verify", start: time.Now()}
	st.record(post(ctx, h.client, "http://"+addr+"/compact", nil))
	for i := 0; i <= verifyQueries; i++ {
		q, _, err := h.takeQuery()
		if err != nil {
			st.record(err)
			break
		}
		k := 0
		if i == verifyQueries {
			k = top
		}
		r := search(ctx, h.client, addr, q, k, time.Time{}, true)
		st.record(r.err)
		h.keep("verify", r)
	}
	st.end = time.Now()
	return st
}
