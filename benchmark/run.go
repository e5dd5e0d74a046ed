package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// checkEvery is the oracle's sampling stride over timed requests: every
// checkEvery-th request keeps its full hit list and is compared with
// Smith-Waterman once the clock has stopped (all warm-up requests are
// checked as well).
const checkEvery = 25

// harness is one run: one workload at one seed.
type harness struct {
	in      *inputs
	sc      scale
	seconds float64
	trace   *tracer // nil on untraced runs
	clock   *speedClock

	workDir  string
	buildBin string
	serveBin string
	// corpusPath and halfPaths are the generated FASTA inputs.
	corpusPath string
	halfPaths  []string

	nproc  int
	client *http.Client
	oracle *oracle

	mu sync.Mutex
	// next is the cursor into in.queries: every request takes a query no
	// earlier request used.
	next int
	// nextHeldOut is the cursor into in.heldOut: every insert is a new
	// sequence.
	nextHeldOut int
	// pending are replies waiting for the oracle.
	pending []pendingCheck
	// inserts records every /insert, so the oracle knows what a search had
	// to see.
	inserts []insertRecord
	phases  []phaseStat
	// procs is every server process this run started.
	procs []*proc
}

// pendingCheck is one reply the oracle verifies after the timed phases.
type pendingCheck struct {
	phase string
	reply *searchReply
}

// insertRecord is one /insert as the writer saw it.
type insertRecord struct {
	id               string
	due, sent, acked time.Time
	err              error
}

// phaseStat is the per-phase request accounting stamped into result files.
type phaseStat struct {
	Name string `json:"name"`
	// Seconds is the phase's wall-clock length, CalibratedSeconds the same
	// stretch on the calibrated clock (see clock.go).
	Seconds           float64 `json:"seconds"`
	CalibratedSeconds float64 `json:"calibrated_seconds"`
	start, end        time.Time
	Sent              int `json:"sent"`
	Succeeded         int `json:"succeeded"`
	Failed            int `json:"failed"`
	// FirstError is the first failure's message, to make a red run legible.
	FirstError string `json:"first_error,omitempty"`
}

func (p *phaseStat) record(err error) {
	p.Sent++
	if err == nil {
		p.Succeeded++
		return
	}
	p.Failed++
	if p.FirstError == "" {
		p.FirstError = err.Error()
	}
}

var errOutOfQueries = errors.New("distinct queries exhausted: a repeat would measure the result cache")

// takeQuery hands out the next unused query and decides whether the oracle
// samples this request.
func (h *harness) takeQuery() (q *query, check bool, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.next >= len(h.in.queries) {
		return nil, false, errOutOfQueries
	}
	q = &h.in.queries[h.next]
	h.next++
	return q, h.next%checkEvery == 0, nil
}

func (h *harness) keep(phase string, r *searchReply) {
	h.mu.Lock()
	h.pending = append(h.pending, pendingCheck{phase: phase, reply: r})
	h.mu.Unlock()
}

// setUp deploys the workload under a fresh directory and warms it: the
// first warmup queries, one connection, closed loop.  The returned phase
// runs from launching the first child to the end of warm-up and counts the
// warm-up requests.  Warm-up replies of the deployment that goes on to be
// measured are kept for the oracle.
func (h *harness) setUp(ctx context.Context, w *workload, n int, measured bool) (*deployment, *phaseStat, error) {
	dir := filepath.Join(h.workDir, fmt.Sprintf("setup%d", n))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	st := &phaseStat{Name: "setup", start: time.Now()}
	d, err := w.deploy(ctx, h, dir)
	if err != nil {
		_, _ = d.stop()
		return nil, nil, err
	}
	for i := 0; i < h.sc.warmup; i++ {
		r := search(ctx, h.client, d.front.addr, &h.in.queries[i], w.top, time.Time{}, measured)
		st.record(r.err)
		if measured {
			h.keep("warmup", r)
		}
	}
	st.end = time.Now()
	return d, st, nil
}

// closedLoop runs conns clients, each sending its next request as soon as
// the previous one completed, until the deadline.  each is called (from the
// client's goroutine) with every reply.
func (h *harness) closedLoop(ctx context.Context, phase string, addr string, top, conns int, dur time.Duration, each func(*searchReply)) phaseStat {
	start := time.Now()
	st := phaseStat{Name: phase, start: start}
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				q, check, err := h.takeQuery()
				if err != nil {
					mu.Lock()
					st.record(err)
					mu.Unlock()
					return
				}
				r := search(ctx, h.client, addr, q, top, time.Time{}, check)
				if check {
					h.keep(phase, r)
				}
				mu.Lock()
				st.record(r.err)
				if r.err == nil && each != nil {
					each(r)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st.end = time.Now()
	return st
}

// maxBacklogSeconds bounds how far an open loop may fall behind before it drops
// requests (each drop is a failure): two seconds of arrivals.
const maxBacklogSeconds = 2

// openLoop issues searches on a fixed schedule — request i is due at
// start + i/rate whatever the server is doing — over at most conns
// connections, timing each from when it was due.  It returns the replies'
// due-to-done intervals and how late the generator itself ran.
func (h *harness) openLoop(ctx context.Context, phase, addr string, top, conns int, rate float64, dur time.Duration) (st phaseStat, latencies []interval, lateMs []float64) {
	st = phaseStat{Name: phase}
	type job struct {
		q     *query
		check bool
		due   time.Time
	}
	total := int(rate * dur.Seconds())
	// Sized to the drop threshold: the generator never blocks on a send.
	jobs := make(chan job, int(rate*maxBacklogSeconds)+1)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				r := search(ctx, h.client, addr, j.q, top, j.due, j.check)
				if j.check {
					h.keep(phase, r)
				}
				mu.Lock()
				st.record(r.err)
				if r.err == nil {
					latencies = append(latencies, interval{r.due, r.done})
				}
				mu.Unlock()
			}
		}()
	}
	start := time.Now()
	st.start = start
	gap := time.Duration(float64(time.Second) / rate)
	for i := 0; i < total && ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(i) * gap)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		q, check, err := h.takeQuery()
		if err != nil {
			mu.Lock()
			st.record(err)
			mu.Unlock()
			break
		}
		lateMs = append(lateMs, ms(time.Since(due)))
		select {
		case jobs <- job{q: q, check: check, due: due}:
		default:
			mu.Lock()
			st.record(fmt.Errorf("dropped: %d requests already waiting for a connection", cap(jobs)))
			mu.Unlock()
		}
	}
	close(jobs)
	wg.Wait()
	st.end = time.Now()
	return st, latencies, lateMs
}

// insert sends held-out sequence i and records the outcome.
func (h *harness) insert(ctx context.Context, addr string, i int, due time.Time) insertRecord {
	s := h.in.heldOut[i]
	body := []byte(`{"id":"` + s.ID + `","sequence":"` + s.String(h.in.base.Alphabet()) + `"}`)
	rec := insertRecord{id: s.ID, due: due, sent: time.Now()}
	if rec.due.IsZero() {
		rec.due = rec.sent
	}
	rec.err = post(ctx, h.client, "http://"+addr+"/insert", body)
	rec.acked = time.Now()
	h.mu.Lock()
	h.inserts = append(h.inserts, rec)
	h.mu.Unlock()
	return rec
}

// visibility splits the recorded inserts, for a search sent at sent and
// finished at done, into those acknowledged before it was sent (the search
// had to see them) and those that overlapped it (it may have).
func (h *harness) visibility(sent, done time.Time) (must, may []string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, rec := range h.inserts {
		switch {
		case rec.err != nil:
		case !rec.acked.After(sent):
			must = append(must, rec.id)
		case rec.sent.Before(done):
			may = append(may, rec.id)
		}
	}
	return must, may
}

// runChecks runs the oracle over every kept reply on all cores (the clock
// has stopped) and returns how many were checked and the failures.
func (h *harness) runChecks() (checked int, failures []string) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	work := make(chan pendingCheck)
	for c := 0; c < runtime.GOMAXPROCS(0); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range work {
				r := p.reply
				if r.err != nil {
					// Already counted as a failed request by its phase.
					continue
				}
				must, may := h.visibility(r.sent, r.done)
				err := h.oracle.check(r, must, may)
				mu.Lock()
				checked++
				if err != nil {
					failures = append(failures, fmt.Sprintf("%s %s (%q): %v", p.phase, r.q.id, r.q.text, err))
				}
				mu.Unlock()
			}
		}()
	}
	for _, p := range h.pending {
		work <- p
	}
	close(work)
	wg.Wait()
	return checked, failures
}
