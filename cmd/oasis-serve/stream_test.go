package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/remote"
	"repro/internal/seq"
	"repro/internal/shard"
	"repro/oasis"
)

// scriptedProvider is a slice whose stream the test writes by hand: run gets
// the provider callbacks of one stream, and done is signalled when it returns.
type scriptedProvider struct {
	run  func(ctx context.Context, hit func(core.Hit) bool, bound func(int) bool) error
	done chan struct{}
}

func (p *scriptedProvider) Stream(_ []byte, opts core.Options, hit func(core.Hit) bool, bound func(int) bool) error {
	defer func() { p.done <- struct{}{} }()
	return p.run(opts.Context, hit, bound)
}

// scriptedTopology serves one scripted slice from a shard server and fronts it
// with a coordinator-mode server: both wire hops over real loopback HTTP.
func scriptedTopology(t *testing.T, p *scriptedProvider) (rs *remote.Server, shardURL, frontURL string) {
	t.Helper()
	p.done = make(chan struct{}, 8) // roomy: never blocks a stream's return
	eng, err := shard.NewEngineFromProviders(shard.ProviderSet{
		Alphabet:  seq.Protein,
		Providers: []shard.Provider{p},
		Parts:     []shard.Part{{Sequences: 1000, Residues: 100_000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	rs = remote.NewServer(eng)
	shardSrv := httptest.NewServer(rs)
	t.Cleanup(shardSrv.Close)
	co, err := oasis.OpenCoordinator(t.Context(), oasis.CoordinatorOptions{Slices: [][]string{{shardSrv.URL}}}, oasis.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = co.Close() })
	scheme, err := oasis.NewScheme(oasis.MatrixByName("BLOSUM62"), -8)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(newServer(co.Engine(), serverConfig{scheme: scheme, defaultEValue: 20000, coordinator: co}))
	t.Cleanup(front.Close)
	return rs, shardSrv.URL, front.URL
}

// TestStreamsAreOnline: a search that stalls after its first hit has already
// delivered that hit — and, on the shard hop, the bound events around it,
// which the hedge race waits on — to an HTTP client reading the stream.  The
// stall ends only after the test has read the lines, so a writer that held
// them back for company would time the read out.
func TestStreamsAreOnline(t *testing.T) {
	resume := make(chan struct{})
	p := &scriptedProvider{run: func(ctx context.Context, hit func(core.Hit) bool, bound func(int) bool) error {
		// The hit is released once the bound drops below its score.
		// (Scores stay under 24, the most the query ACDE can score: streams
		// start from that bound.)
		if !bound(20) || !hit(core.Hit{SeqIndex: 7, SeqID: "S7", Score: 15}) || !bound(10) {
			return nil
		}
		select {
		case <-resume:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}}
	rs, shardURL, frontURL := scriptedTopology(t, p)
	ctx, cancel := context.WithTimeout(t.Context(), 10*time.Second)
	defer cancel()
	post := func(url, body string) *bufio.Reader {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", url, resp.StatusCode)
		}
		return bufio.NewReader(resp.Body)
	}
	readLine := func(br *bufio.Reader) string {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended or stalled before the expected line: %v", err)
		}
		return line
	}

	br := post(shardURL+remote.PathStream, `{"query":"ACDE","matrix":"BLOSUM62","gap":-8,"min_score":1}`)
	for _, want := range []string{
		`{"e":"b","v":20}` + "\n",
		`{"e":"b","v":15}` + "\n", // the hit itself caps what can follow it
		`{"e":"h","seq":7,"id":"S7","score":15}` + "\n",
		`{"e":"b","v":10}` + "\n",
	} {
		if got := readLine(br); got != want {
			t.Fatalf("shard stream line %q, want %q", got, want)
		}
	}
	resume <- struct{}{} // the search was still running: only now may it finish
	if got := readLine(br); !strings.HasPrefix(got, `{"e":"d"`) {
		t.Fatalf("shard stream ended with %q, want a done event", got)
	}
	<-p.done

	br = post(frontURL+"/search", `{"query":"ACDE","min_score":1}`)
	var ev hitEvent
	if err := json.Unmarshal([]byte(readLine(br)), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Type != "hit" || ev.SeqID != "S7" || ev.Score != 15 || ev.Rank != 1 {
		t.Fatalf("first /search event = %+v, want the stalled search's hit", ev)
	}
	resume <- struct{}{}
	if got := readLine(br); !strings.Contains(got, `"type":"done"`) {
		t.Fatalf("/search ended with %q, want a done event", got)
	}
	<-p.done

	// Two streams of five events each; each flushed at least once before its
	// stall and once after.  (A handler counts a write after making it, so
	// wait for both to have returned.)
	for deadline := time.Now().Add(5 * time.Second); rs.Stats().Active > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	st := rs.Stats()
	if st.EventsWritten != 10 || st.Flushes < 4 || st.Flushes > 10 {
		t.Fatalf("shard server wrote %d events in %d flushes, want 10 in 4..10", st.EventsWritten, st.Flushes)
	}
	if st.Streams != 2 || st.Cancelled != 0 {
		t.Fatalf("shard server counted %d streams, %d cancelled; both ran to their done event", st.Streams, st.Cancelled)
	}
}

// TestStalledReaderBlocksTheSearch: a /search client that stops reading stalls
// the search at the far end of both wire hops (nothing buffers without bound),
// and hanging up unwinds it; leakcheck holds the binary to "no goroutine left".
func TestStalledReaderBlocksTheSearch(t *testing.T) {
	const floodQueryLen = 10_000
	var produced atomic.Int64
	p := &scriptedProvider{run: func(ctx context.Context, hit func(core.Hit) bool, bound func(int) bool) error {
		// 100 million hits, far more than any buffer on the way holds: bursts
		// of 1,000 equal scores, each released by the bound that follows it.
		for score := floodQueryLen * 11; score > 1 && ctx.Err() == nil; score-- {
			for i := 0; i < 1000; i++ {
				produced.Add(1)
				if !hit(core.Hit{SeqIndex: i, SeqID: "FLOOD", Score: score}) {
					return nil
				}
			}
			if !bound(score - 1) {
				return nil
			}
		}
		return ctx.Err()
	}}
	_, _, frontURL := scriptedTopology(t, p)

	conn, err := net.Dial("tcp", strings.TrimPrefix(frontURL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A query of W's can score 11 a residue, which is the room the flood's
	// decreasing scores need.
	body := `{"query":"` + strings.Repeat("W", floodQueryLen) + `","min_score":1}`
	if _, err := fmt.Fprintf(conn, "POST /search HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body); err != nil {
		t.Fatal(err)
	}
	// Read enough to know the stream is flowing, then stop reading for good.
	head := make([]byte, 4096)
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(head); err != nil || !bytes.HasPrefix(head, []byte("HTTP/1.1 200")) {
		t.Fatalf("no streaming response: %q (%v)", head[:32], err)
	}

	// Stalled = the producer makes no progress for 10 polls in a row, once the
	// socket buffers of both hops have filled.
	deadline := time.Now().Add(30 * time.Second)
	last, still := int64(-1), 0
	for still < 10 {
		if time.Now().After(deadline) {
			t.Fatalf("search never stalled behind a reader that stopped: %d hits produced and counting", produced.Load())
		}
		time.Sleep(20 * time.Millisecond)
		if n := produced.Load(); n == last {
			still++
		} else {
			last, still = n, 0
		}
	}
	t.Logf("search stalled after %d hits", last)
	select {
	case <-p.done:
		t.Fatal("search ended while its reader was merely stalled")
	default:
	}

	conn.Close()
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		t.Fatal("search still running 10 s after its client hung up")
	}
}
