package remote

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultpoint"
)

// Defaults of the client's robustness knobs.
const (
	// defaultHedgeDelay is the hedge trigger before enough first-event
	// latency samples exist to compute a percentile.
	defaultHedgeDelay = 50 * time.Millisecond
	// minHedgeDelay floors the adaptive hedge trigger so a very fast corpus
	// does not hedge every single request.
	minHedgeDelay = 2 * time.Millisecond
	// ttfbWindow is how many first-event latency samples the adaptive hedge
	// trigger remembers.
	ttfbWindow = 64
	// ttfbMinSamples is how many samples the tracker wants before trusting
	// its percentile over defaultHedgeDelay.
	ttfbMinSamples = 16
	// downAfter is how many consecutive failed attempts mark a replica down
	// (de-prioritized, not banned: it is still tried when every replica of
	// the slice is down, which is how a recovered replica rejoins).
	downAfter = 3
)

// errConsumerStopped marks an attempt that ended because the merger's
// callback returned false: a clean stop, not a fault.
var errConsumerStopped = errors.New("remote: consumer stopped the stream")

// permanentError marks an attempt failure that retrying cannot fix (the
// replica rejected the request as malformed), so the client fails the slice
// immediately instead of burning the attempt budget.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Metrics aggregates the client-side robustness counters; a coordinator
// shares one instance across its slice clients so /metrics reports fan-out
// totals.
type Metrics struct {
	Streams       atomic.Int64 // provider streams served
	Attempts      atomic.Int64 // stream attempts issued (first tries + retries)
	Retries       atomic.Int64 // re-attempts after a failed attempt
	Failovers     atomic.Int64 // re-attempts that switched replica
	Hedges        atomic.Int64 // hedge requests launched
	HedgeWins     atomic.Int64 // hedges whose response won the race
	SliceFailures atomic.Int64 // streams that exhausted every attempt
}

// MetricsSnapshot is a point-in-time copy of Metrics for /metrics handlers.
type MetricsSnapshot struct {
	Streams       int64 `json:"streams"`
	Attempts      int64 `json:"attempts"`
	Retries       int64 `json:"retries"`
	Failovers     int64 `json:"failovers"`
	Hedges        int64 `json:"hedges"`
	HedgeWins     int64 `json:"hedge_wins"`
	SliceFailures int64 `json:"slice_failures"`
}

// Snapshot copies the counters.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Streams:       m.Streams.Load(),
		Attempts:      m.Attempts.Load(),
		Retries:       m.Retries.Load(),
		Failovers:     m.Failovers.Load(),
		Hedges:        m.Hedges.Load(),
		HedgeWins:     m.HedgeWins.Load(),
		SliceFailures: m.SliceFailures.Load(),
	}
}

// ReplicaHealth is one replica's health snapshot for readiness reporting:
// "up" (last attempt succeeded), "degraded" (recent failures, below the down
// threshold) or "down" (downAfter consecutive failures).
type ReplicaHealth struct {
	Addr                string `json:"addr"`
	State               string `json:"state"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	TotalFailures       int64  `json:"total_failures"`
	LastError           string `json:"last_error,omitempty"`
}

// replicaState tracks one replica's failure history.
type replicaState struct {
	addr        string
	mu          sync.Mutex
	consecFails int
	totalFails  int64
	lastErr     string
}

func (r *replicaState) fail(err error) {
	r.mu.Lock()
	r.consecFails++
	r.totalFails++
	r.lastErr = err.Error()
	r.mu.Unlock()
}

func (r *replicaState) ok() {
	r.mu.Lock()
	r.consecFails = 0
	r.mu.Unlock()
}

func (r *replicaState) down() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.consecFails >= downAfter
}

func (r *replicaState) snapshot() ReplicaHealth {
	r.mu.Lock()
	defer r.mu.Unlock()
	state := "up"
	switch {
	case r.consecFails >= downAfter:
		state = "down"
	case r.consecFails > 0:
		state = "degraded"
	}
	return ReplicaHealth{
		Addr:                r.addr,
		State:               state,
		ConsecutiveFailures: r.consecFails,
		TotalFailures:       r.totalFails,
		LastError:           r.lastErr,
	}
}

// Client streams one shard slice from its replica set, implementing
// shard.Provider with retry, failover, hedging and health tracking.  A
// mid-stream replica failure resumes on another replica by skipping the hits
// already forwarded: slice hit streams are deterministic (the replica's own
// strict-release merge orders ties by sequence index), so the replay prefix
// must match hit for hit — the client verifies the last skipped hit against
// the last forwarded one and treats a mismatch as replica corruption.
// Bounds are timing-dependent across attempts but always conservative, so a
// monotonic filter keeps the published bound sequence decreasing.
type Client struct {
	slice     int
	sequences int
	replicas  []string
	health    []*replicaState
	hc        *http.Client
	pacing
	metrics *Metrics
	ttfb    ttfbTracker
	rr      atomic.Int64 // round-robin start for load spreading
}

// Per-attempt transport timeouts: dialTimeout bounds the TCP connect of one
// attempt and headerTimeout the wait for a replica's response headers.  Both
// are deliberately distinct from the per-query deadline the serving layer
// applies around the whole fan-out — a slow replica should burn one attempt,
// not the query.
const (
	dialTimeout   = 2 * time.Second
	headerTimeout = 10 * time.Second
)

// newTransport builds the http.Transport every slice client shares.
func newTransport() *http.Transport {
	return &http.Transport{
		DialContext:           (&net.Dialer{Timeout: dialTimeout}).DialContext,
		ResponseHeaderTimeout: headerTimeout,
		MaxIdleConnsPerHost:   16,
		IdleConnTimeout:       90 * time.Second,
	}
}

// Health snapshots every replica's state.
func (c *Client) Health() []ReplicaHealth {
	out := make([]ReplicaHealth, len(c.health))
	for i, h := range c.health {
		out[i] = h.snapshot()
	}
	return out
}

// streamState carries forwarding progress across failover attempts.
type streamState struct {
	forwarded int // hits already delivered to the consumer
	lastScore int // tail of the forwarded prefix, for resume verification
	lastSeq   int // (slice-local index)
	lastBound int // monotonic filter over published bounds
}

// Stream implements shard.Provider: it issues the query to the slice's
// replicas, forwarding (hit, bound) events, retrying with jittered backoff,
// failing over mid-stream, and hedging a slow first response.  It returns
// nil on completion or consumer stop, the parent context's error on
// cancellation, and a terminal error — which the consuming merger translates
// into slice quarantine — when every attempt failed.
func (c *Client) Stream(query []byte, opts core.Options, hit func(core.Hit) bool, bound func(int) bool) error {
	parent := opts.Context
	if parent == nil {
		parent = context.Background()
	}
	body, err := c.encodeRequest(query, opts)
	if err != nil {
		return err
	}
	c.metrics.Streams.Add(1)
	st := &streamState{lastScore: math.MinInt, lastBound: math.MaxInt}
	cur := c.pickStart()
	var lastErr error
	for attempt := 0; attempt < c.maxTries; attempt++ {
		if attempt > 0 {
			c.metrics.Retries.Add(1)
			if err := c.policy.Sleep(parent, attempt-1); err != nil {
				return err
			}
		}
		c.metrics.Attempts.Add(1)
		used, err := c.runAttempt(parent, cur, body, st, opts, hit, bound)
		if err == nil || errors.Is(err, errConsumerStopped) {
			c.health[used].ok()
			return nil
		}
		if parent.Err() != nil {
			return parent.Err()
		}
		c.health[used].fail(err)
		lastErr = err
		var pe *permanentError
		if errors.As(err, &pe) {
			c.metrics.SliceFailures.Add(1)
			return fmt.Errorf("remote: slice %d: %w", c.slice, pe.err)
		}
		next := c.nextReplica(used)
		if next != used {
			c.metrics.Failovers.Add(1)
		}
		cur = next
	}
	c.metrics.SliceFailures.Add(1)
	return fmt.Errorf("remote: slice %d: %d attempts across %d replicas failed; last: %w",
		c.slice, c.maxTries, len(c.replicas), lastErr)
}

// encodeRequest rebuilds the wire request from the engine-level search
// arguments: the query decodes back to residue letters and the scheme
// travels by matrix name.
func (c *Client) encodeRequest(query []byte, opts core.Options) ([]byte, error) {
	matrix := opts.Scheme.Matrix
	if matrix == nil {
		return nil, fmt.Errorf("remote: slice %d: options carry no scoring matrix", c.slice)
	}
	req := StreamRequest{
		Query:      matrix.Alphabet().Decode(query),
		Matrix:     matrix.Name(),
		Gap:        opts.Scheme.Gap,
		MinScore:   opts.MinScore,
		MaxResults: opts.MaxResults,
		Strict:     opts.StrictShards,
	}
	return json.Marshal(req)
}

// pickStart chooses the first replica for a new stream: round-robin across
// streams for load spreading, skipping replicas currently marked down.
func (c *Client) pickStart() int {
	n := len(c.replicas)
	start := int(c.rr.Add(1)-1) % n
	for i := 0; i < n; i++ {
		r := (start + i) % n
		if !c.health[r].down() {
			return r
		}
	}
	return start
}

// nextReplica picks the failover target after a failure on cur: the next
// replica in ring order that is not marked down, falling back to plain ring
// order when every replica is down (so recovered replicas get retried).
func (c *Client) nextReplica(cur int) int {
	n := len(c.replicas)
	if n == 1 {
		return cur
	}
	for i := 1; i < n; i++ {
		r := (cur + i) % n
		if !c.health[r].down() {
			return r
		}
	}
	return (cur + 1) % n
}

// hedgeDelay is how long the first attempt may go without a first event
// before a hedge launches.
func (c *Client) hedgeDelay() time.Duration {
	if c.hedgeAfter > 0 {
		return c.hedgeAfter
	}
	if d, ok := c.ttfb.p95(); ok {
		if d < minHedgeDelay {
			return minHedgeDelay
		}
		return d
	}
	return defaultHedgeDelay
}

// conn is one opened stream attempt: response body, buffered reader, the
// already-read first event line, and the cancel that aborts the replica's
// server-side search.
type conn struct {
	replica int
	cancel  context.CancelFunc
	body    io.ReadCloser
	br      *bufio.Reader
	first   []byte
}

func (cn *conn) close() {
	cn.cancel()
	cn.body.Close()
}

// runAttempt opens one (possibly hedged) stream and consumes it.  It returns
// the replica that served the attempt for health bookkeeping.
func (c *Client) runAttempt(parent context.Context, primary int, body []byte, st *streamState, opts core.Options, hit func(core.Hit) bool, bound func(int) bool) (int, error) {
	cn, err := c.openHedged(parent, primary, body)
	if err != nil {
		return primary, err
	}
	defer cn.close()
	return cn.replica, c.consume(cn, st, opts, hit, bound)
}

// openResult is one opener goroutine's outcome.
type openResult struct {
	cn      *conn
	err     error
	replica int
	ttfb    time.Duration
}

// openHedged opens a stream on primary, racing a hedge attempt on the
// replica a failover would pick (nextReplica) if the first event has not
// arrived within hedgeDelay; a slice with no other replica is not hedged.  The
// first successful open wins; every other in-flight open is cancelled (the
// loser's request context aborts its replica's search) and reaped.
func (c *Client) openHedged(parent context.Context, primary int, body []byte) (*conn, error) {
	secondary := c.nextReplica(primary)
	if secondary == primary || c.noHedge {
		secondary = -1
	}
	results := make(chan openResult, 2)
	type launchRec struct {
		replica int
		cancel  context.CancelFunc
	}
	var launched []launchRec
	launch := func(replica int) {
		actx, cancel := context.WithCancel(parent)
		launched = append(launched, launchRec{replica, cancel})
		go func() {
			t0 := time.Now()
			cn, err := c.open(actx, cancel, replica, body)
			results <- openResult{cn: cn, err: err, replica: replica, ttfb: time.Since(t0)}
		}()
	}
	// reap cancels every loser and drains its result so no opener goroutine
	// blocks and no winning-but-late connection leaks.
	reap := func(winner int, pending int) {
		for _, l := range launched {
			if l.replica != winner {
				l.cancel()
			}
		}
		if pending > 0 {
			go func() {
				for i := 0; i < pending; i++ {
					if r := <-results; r.cn != nil {
						r.cn.close()
					}
				}
			}()
		}
	}

	launch(primary)
	var timerC <-chan time.Time
	if secondary >= 0 {
		timer := time.NewTimer(c.hedgeDelay())
		defer timer.Stop()
		timerC = timer.C
	}
	inflight := 1
	hedged := false
	var firstErr error
	for {
		select {
		case r := <-results:
			inflight--
			if r.err == nil {
				c.ttfb.record(r.ttfb)
				if hedged && r.replica == secondary {
					c.metrics.HedgeWins.Add(1)
				}
				reap(r.replica, inflight)
				return r.cn, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if inflight == 0 {
				// Every launched open failed (a failure before the hedge
				// timer fires is the attempt's failure — the retry loop,
				// not the hedge race, handles it).
				return nil, firstErr
			}
		case <-timerC:
			timerC = nil
			if err := faultpoint.Hit(faultpoint.SiteRemoteHedge, c.replicas[secondary]); err != nil {
				break // hedge suppressed by fault injection
			}
			c.metrics.Hedges.Add(1)
			hedged = true
			launch(secondary)
			inflight++
		case <-parent.Done():
			reap(-1, inflight)
			return nil, parent.Err()
		}
	}
}

// open issues one stream request and reads through the first event line, so
// the hedge race is decided by time-to-first-byte of payload, not by TCP
// accept alone.
func (c *Client) open(ctx context.Context, cancel context.CancelFunc, replica int, body []byte) (*conn, error) {
	addr := c.replicas[replica]
	if err := faultpoint.Hit(faultpoint.SiteRemoteDial, addr); err != nil {
		cancel()
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL(addr)+PathStream, bytes.NewReader(body))
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		cancel()
		err := fmt.Errorf("remote: %s: HTTP %d: %s", addr, resp.StatusCode, strings.TrimSpace(string(msg)))
		if resp.StatusCode == http.StatusBadRequest {
			// The replica rejected the request itself; another replica will
			// reject it identically.
			return nil, &permanentError{err}
		}
		return nil, err
	}
	br := bufio.NewReader(resp.Body)
	first, err := br.ReadBytes('\n')
	if err != nil {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("remote: %s: no first event: %w", addr, err)
	}
	return &conn{replica: replica, cancel: cancel, body: resp.Body, br: br, first: first}, nil
}

// baseURL turns a replica address into a URL prefix.
func baseURL(addr string) string {
	if strings.Contains(addr, "://") {
		return strings.TrimSuffix(addr, "/")
	}
	return "http://" + addr
}

// consume forwards one opened stream's events.  On a resumed attempt the
// first st.forwarded hits replay the already-delivered prefix and are
// skipped; the last skipped hit must equal the last forwarded one or the
// replica is serving a different stream (corruption, version skew) and the
// attempt fails.  Bounds pass a monotonic filter so the replayed prefix's
// high early bounds never reach the consumer.
func (c *Client) consume(cn *conn, st *streamState, opts core.Options, hit func(core.Hit) bool, bound func(int) bool) error {
	addr := c.replicas[cn.replica]
	line := cn.first
	// The replay prefix is what PREVIOUS attempts forwarded; snapshot it
	// before this attempt starts growing the count.
	replay := st.forwarded
	skipped := 0
	for {
		if err := faultpoint.HitBuf(faultpoint.SiteRemoteStream, addr, line); err != nil {
			return err
		}
		ev, err := decodeEvent(line)
		if err != nil {
			return fmt.Errorf("remote: %s sent an undecodable event: %w", addr, err)
		}
		switch ev.E {
		case "b":
			// Conservative even mid-replay: a lower bound only delays
			// releases at the consuming merger, never loses hits.
			if ev.V < st.lastBound {
				st.lastBound = ev.V
				if !bound(ev.V) {
					return errConsumerStopped
				}
			}
		case "h":
			if ev.Seq < 0 || ev.Seq >= c.sequences {
				return fmt.Errorf("remote: %s sent out-of-range sequence index %d (slice has %d)", addr, ev.Seq, c.sequences)
			}
			if skipped < replay {
				skipped++
				if skipped == replay && (ev.Score != st.lastScore || ev.Seq != st.lastSeq) {
					return fmt.Errorf("remote: %s replayed a different stream (resume hit %d is score=%d seq=%d, forwarded tail was score=%d seq=%d)",
						addr, skipped, ev.Score, ev.Seq, st.lastScore, st.lastSeq)
				}
			} else {
				// Monotonicity holds for every hit past the replayed prefix:
				// published bounds are true statements about the slice's
				// deterministic hit sequence, whichever replica made them.
				if ev.Score > st.lastBound {
					return fmt.Errorf("remote: %s broke score monotonicity (hit score %d above bound %d)", addr, ev.Score, st.lastBound)
				}
				st.forwarded++
				st.lastScore, st.lastSeq = ev.Score, ev.Seq
				if ev.Score < st.lastBound {
					st.lastBound = ev.Score // a hit caps everything after it
				}
				h := core.Hit{
					SeqIndex: ev.Seq,
					SeqID:    ev.ID,
					Score:    ev.Score,
				}
				if !hit(h) {
					return errConsumerStopped
				}
			}
		case "d":
			if ev.Err != "" {
				return fmt.Errorf("remote: %s: %s", addr, ev.Err)
			}
			if skipped < replay {
				return fmt.Errorf("remote: %s replayed a shorter stream (%d hits, %d already forwarded)", addr, skipped, replay)
			}
			if opts.Stats != nil && ev.Stats != nil {
				opts.Stats.Add(*ev.Stats)
			}
			return nil
		default:
			return fmt.Errorf("remote: %s sent unknown event kind %q", addr, ev.E)
		}
		line, err = readLine(cn.br)
		if err != nil {
			return fmt.Errorf("remote: stream from %s broke: %w", addr, err)
		}
	}
}

// readLine returns the next event line of a stream.  The slice aliases br's
// buffer — valid (and writable: faultpoint.HitBuf may flip a bit in it) until
// the next read — so the ~1,600 events of a query cost no allocation; only a
// line longer than the buffer (a "d" event carrying ShardErrors) is
// accumulated into its own.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	head := bytes.Clone(line)
	rest, err := br.ReadBytes('\n')
	return append(head, rest...), err
}

// ttfbTracker remembers recent time-to-first-event samples and serves their
// p95 as the adaptive hedge trigger.
type ttfbTracker struct {
	mu      sync.Mutex
	samples [ttfbWindow]time.Duration
	n       int // total recorded (ring index = n % ttfbWindow)
}

func (t *ttfbTracker) record(d time.Duration) {
	t.mu.Lock()
	t.samples[t.n%ttfbWindow] = d
	t.n++
	t.mu.Unlock()
}

// p95 returns the 95th percentile of the recorded window, or false when too
// few samples exist to trust it.
func (t *ttfbTracker) p95() (time.Duration, bool) {
	t.mu.Lock()
	n := t.n
	if n > ttfbWindow {
		n = ttfbWindow
	}
	if n < ttfbMinSamples {
		t.mu.Unlock()
		return 0, false
	}
	buf := make([]time.Duration, n)
	copy(buf, t.samples[:n])
	t.mu.Unlock()
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	idx := (n*95+99)/100 - 1
	if idx < 0 {
		idx = 0
	}
	return buf[idx], true
}
