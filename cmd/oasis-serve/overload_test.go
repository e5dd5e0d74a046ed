package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/workload"
	"repro/oasis"
)

// TestOverloadKeepsSearchInteractive is the server's overload contract, over a
// real listener: one client keeps 2 x GOMAXPROCS maximal batches in flight
// while another sends /search requests one after another.  Every search must
// succeed, and its median latency under that load must stay within 5x of the
// median with the server idle; the batch client's goodput must not collapse
// against its goodput with one batch in flight.  The batch client holds one place in the
// engine's slot queue however many batches it has open, so a search waits for
// a slot to free and for at most one batch query ahead of it, not for whole
// batches.
func TestOverloadKeepsSearchInteractive(t *testing.T) {
	db, motifs, err := workload.ProteinDatabase(workload.DefaultProteinConfig(100_000))
	if err != nil {
		t.Fatal(err)
	}
	wq, err := workload.MotifQueries(db, motifs, workload.DefaultQueryConfig(maxBatch))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := oasis.NewEngine(db, oasis.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	scheme, err := oasis.NewScheme(oasis.MatrixByName("PAM30"), -10)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(eng, serverConfig{scheme: scheme, defaultEValue: 20000}))
	defer ts.Close()
	client := ts.Client()
	defer client.Transport.(*http.Transport).CloseIdleConnections()

	reqs := make([]searchRequest, len(wq))
	for i, q := range wq {
		reqs[i] = searchRequest{ID: q.ID, Query: oasis.Protein.Decode(q.Residues)}
	}
	batchBody, err := json.Marshal(batchRequest{Queries: reqs})
	if err != nil {
		t.Fatal(err)
	}
	// post sends one request and reads its stream to the end, counting its
	// "done" events into done.
	post := func(ctx context.Context, path, clientID string, body []byte, done *atomic.Int64) error {
		req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("X-Client-ID", clientID)
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: status %d", path, resp.StatusCode)
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if bytes.Contains(sc.Bytes(), []byte(`"type":"done"`)) {
				done.Add(1)
			}
		}
		return sc.Err()
	}
	const searches = 24
	interactive := func() []time.Duration {
		var lat []time.Duration
		for i := 0; i < searches; i++ {
			body, _ := json.Marshal(reqs[i%len(reqs)])
			var done atomic.Int64
			start := time.Now()
			if err := post(context.Background(), "/search", "interactive", body, &done); err != nil || done.Load() != 1 {
				t.Fatalf("search %d: %d done events, %v", i, done.Load(), err)
			}
			lat = append(lat, time.Since(start))
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat
	}

	interactive() // warm the searcher scratch and the connection
	unloaded := interactive()

	// The batch client's goodput over one second, with n batches in flight.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var served atomic.Int64
	var wg sync.WaitGroup
	load := func(n int) float64 {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					err := post(ctx, "/batch", "batch", batchBody, &served)
					if err != nil && ctx.Err() == nil {
						t.Errorf("batch: %v", err)
						return
					}
				}
			}()
		}
		// Let every batch reach the engine before the clock starts.
		time.Sleep(200 * time.Millisecond)
		start, before := time.Now(), served.Load()
		time.Sleep(time.Second)
		return float64(served.Load()-before) / time.Since(start).Seconds()
	}
	peak := load(1)
	goodput := load(2*runtime.GOMAXPROCS(0) - 1)
	loaded := interactive()
	cancel()
	wg.Wait()

	p := func(lat []time.Duration, q float64) time.Duration { return lat[int(q*float64(len(lat)-1))] }
	ratio := float64(p(loaded, 0.5)) / float64(p(unloaded, 0.5))
	t.Logf("search p50 %s unloaded, %s loaded (%.1fx); p95 %s unloaded, %s loaded; batch goodput %.0f queries/s with one batch in flight, %.0f overloaded",
		p(unloaded, 0.5), p(loaded, 0.5), ratio, p(unloaded, 0.95), p(loaded, 0.95), peak, goodput)
	if ratio > 5 {
		t.Errorf("search p50 under batch load is %.1fx the unloaded p50, want <= 5x", ratio)
	}
	// One batch keeps every slot busy, so overload should not lower goodput.
	// One-second windows on a shared host vary by a fifth either way: the
	// bound catches a collapse, not a drift.
	if goodput < peak/2 {
		t.Errorf("batch goodput overloaded is %.0f queries/s, under half the %.0f with one batch in flight", goodput, peak)
	}
}
