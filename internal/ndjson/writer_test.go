package ndjson

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

// TestMain fails the binary if a Writer's goroutine outlives its Close.
func TestMain(m *testing.M) { leakcheck.Main(m) }

// gatedResponse is a ResponseWriter whose every Write reports its bytes on
// writes and then waits for one token on gate (when set) before returning —
// a reader the test paces by hand.
type gatedResponse struct {
	writes chan []byte
	gate   chan struct{}
	err    error
}

func newGatedResponse(gated bool) *gatedResponse {
	g := &gatedResponse{writes: make(chan []byte, 1024)} // roomy: Write must block on gate only
	if gated {
		g.gate = make(chan struct{})
	}
	return g
}

func (g *gatedResponse) Header() http.Header { return http.Header{} }
func (g *gatedResponse) WriteHeader(int)     {}
func (g *gatedResponse) Flush()              {}
func (g *gatedResponse) Write(p []byte) (int, error) {
	g.writes <- bytes.Clone(p)
	if g.gate != nil {
		<-g.gate
	}
	if g.err != nil {
		return 0, g.err
	}
	return len(p), nil
}

func (g *gatedResponse) nextWrite(t *testing.T) string {
	t.Helper()
	select {
	case p := <-g.writes:
		return string(p)
	case <-time.After(5 * time.Second):
		t.Fatal("no write arrived")
		return ""
	}
}

// TestWriterOnlineAndCoalescing: a line appended to an idle writer is written
// with nothing following it, and lines appended while that write is in flight
// share the next one.
func TestWriterOnlineAndCoalescing(t *testing.T) {
	resp := newGatedResponse(true)
	var stats Stats
	ew := NewWriter(context.Background(), resp, &stats)
	if !ew.Append([]byte("a\n")) {
		t.Fatal("Append on a fresh writer failed")
	}
	if got := resp.nextWrite(t); got != "a\n" {
		t.Fatalf("first write = %q, want the lone first line", got)
	}
	for _, l := range []string{"b\n", "c\n", "d\n"} {
		if !ew.Append([]byte(l)) {
			t.Fatalf("Append(%q) failed while a write was in flight", l)
		}
	}
	resp.gate <- struct{}{}
	if got := resp.nextWrite(t); got != "b\nc\nd\n" {
		t.Fatalf("second write = %q, want the three lines appended during the first", got)
	}
	resp.gate <- struct{}{}
	if err := ew.Close(); err != nil {
		t.Fatal(err)
	}
	if e, f := stats.Events.Load(), stats.Flushes.Load(); e != 4 || f != 2 {
		t.Fatalf("stats = %d events in %d flushes, want 4 in 2", e, f)
	}
	if ew.Append([]byte("late\n")) {
		t.Fatal("Append after Close succeeded")
	}
}

// fillToCap stalls the writer on its first write and appends 1 KiB lines until
// pending sits exactly at the cap; the returned channel reports the outcome of
// one further Append, which must block.
func fillToCap(t *testing.T, ew *Writer, resp *gatedResponse) <-chan bool {
	t.Helper()
	line := bytes.Repeat([]byte("x"), 1023)
	line = append(line, '\n')
	ew.Append(line)
	resp.nextWrite(t) // in flight, blocked on the gate
	for i := 0; i < maxPending/len(line); i++ {
		if !ew.Append(line) {
			t.Fatalf("Append %d below the cap failed", i)
		}
	}
	blocked := make(chan bool, 1)
	go func() { blocked <- ew.Append(line) }()
	select {
	case ok := <-blocked:
		t.Fatalf("Append past the cap returned %v instead of blocking", ok)
	case <-time.After(50 * time.Millisecond):
	}
	ew.mu.Lock()
	n := len(ew.pending)
	ew.mu.Unlock()
	if n != maxPending {
		t.Fatalf("pending = %d bytes with a producer blocked, want the cap %d", n, maxPending)
	}
	return blocked
}

// TestWriterBackpressure: with the reader stalled, pending bytes stop at the
// cap and the producer blocks; it resumes when the writer drains.
func TestWriterBackpressure(t *testing.T) {
	resp := newGatedResponse(true)
	ew := NewWriter(context.Background(), resp, &Stats{})
	blocked := fillToCap(t, ew, resp)
	resp.gate <- struct{}{} // the reader takes the first line; the writer drains pending
	select {
	case ok := <-blocked:
		if !ok {
			t.Fatal("blocked Append failed after the writer drained")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Append still blocked after the writer drained")
	}
	close(resp.gate) // let every further write through
	if err := ew.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWriterBlockedAppendUnblocksOnCancel: a producer blocked at the cap is
// released (with false) when the request context is cancelled.
func TestWriterBlockedAppendUnblocksOnCancel(t *testing.T) {
	resp := newGatedResponse(true)
	ctx, cancel := context.WithCancel(context.Background())
	ew := NewWriter(ctx, resp, &Stats{})
	blocked := fillToCap(t, ew, resp)
	cancel()
	select {
	case ok := <-blocked:
		if ok {
			t.Fatal("Append reported success after the client went away")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Append still blocked after cancellation")
	}
	close(resp.gate)
	if err := ew.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWriterErrorIsSticky: a failed write stops the goroutine, fails every
// later Append and is what Close reports.
func TestWriterErrorIsSticky(t *testing.T) {
	resp := newGatedResponse(false)
	resp.err = errors.New("connection reset")
	ew := NewWriter(context.Background(), resp, &Stats{})
	ew.Append([]byte("a\n"))
	resp.nextWrite(t)
	<-ew.exited
	if ew.Append([]byte("b\n")) {
		t.Fatal("Append succeeded after a write error")
	}
	if err := ew.Close(); !errors.Is(err, resp.err) {
		t.Fatalf("Close = %v, want the write error", err)
	}
}

// TestWriterOversizedLine: one line longer than the cap still goes out when
// nothing else is pending (a done event listing many shard errors).
func TestWriterOversizedLine(t *testing.T) {
	resp := newGatedResponse(false)
	ew := NewWriter(context.Background(), resp, &Stats{})
	line := append(bytes.Repeat([]byte("y"), maxPending), '\n')
	if !ew.Append(line) {
		t.Fatal("oversized line rejected")
	}
	if got := resp.nextWrite(t); got != string(line) {
		t.Fatalf("oversized line arrived as %d bytes, want %d", len(got), len(line))
	}
	if err := ew.Close(); err != nil {
		t.Fatal(err)
	}
}
