// Package ndjson is the one way this repository puts an event stream on the
// wire: a self-clocked, coalescing line writer (Writer) plus append-style
// encoders for the three line shapes that dominate a stream (encode.go).
// cmd/oasis-serve's /search and /batch and internal/remote's
// /oasis/shard/stream both write through it.
//
// The contract is the paper's online delivery shaped to how hits actually
// arrive — in bursts, released together when a bound drops: a line is never
// held back waiting for a later one, a full buffer or a clock, but lines
// produced while a write is in flight travel together in the next one.
package ndjson

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
)

// maxPending caps the bytes appended but not yet handed to the writer
// goroutine.  Append blocks at the cap, so a reader that stops reading stalls
// the search that feeds the stream instead of growing the heap; the buffer
// being written is a second one of at most the same size.  (A single line
// longer than the cap is still accepted when nothing else is pending.)
const maxPending = 64 << 10

// Stats are the lifetime counters of every Writer built over them: lines
// written to the response and write+flush rounds that carried them.  Their
// ratio is how well a stream coalesces.
type Stats struct {
	Events  atomic.Int64
	Flushes atomic.Int64
}

// Writer streams NDJSON lines to one HTTP response.  Producers Append encoded
// lines and return; one goroutine per Writer writes and flushes whatever has
// accumulated, so the first line of a burst leaves at once and every line
// appended while that write is in flight shares the next — the stream clocks
// itself off the socket, with no timer or flush interval.
//
// The goroutine owns the ResponseWriter between NewWriter and Close: the
// handler must set headers before NewWriter and trailers after Close.
type Writer struct {
	w     http.ResponseWriter
	rc    *http.ResponseController
	gone  <-chan struct{} // the request context: closed when the client is gone
	stats *Stats

	wake    chan struct{} // pending went non-empty, or Close was called
	drained chan struct{} // the goroutine took the pending buffer
	exited  chan struct{} // closed when the goroutine returns

	mu      sync.Mutex
	pending []byte
	lines   int // lines in pending
	closed  bool
	err     error // first write error; sticky
}

// NewWriter starts the writer goroutine for one response.  ctx is the request
// context (it unblocks an Append stalled on a reader that went away); Close
// must be called before the handler returns.
func NewWriter(ctx context.Context, w http.ResponseWriter, stats *Stats) *Writer {
	ew := &Writer{
		w:       w,
		rc:      http.NewResponseController(w),
		gone:    ctx.Done(),
		stats:   stats,
		wake:    make(chan struct{}, 1),
		drained: make(chan struct{}, 1),
		exited:  make(chan struct{}),
	}
	go ew.run()
	return ew
}

// Append queues one encoded line (terminating newline included; the bytes are
// copied) and reports whether the stream is still worth feeding: false after a
// write error, after Close, or when the client went away while Append was
// blocked at the pending-bytes cap.  The pending buffer is reused for the
// whole stream and grows amortized up to maxPending.
//
//oasis:hotpath
func (ew *Writer) Append(line []byte) bool {
	for {
		ew.mu.Lock()
		if ew.err != nil || ew.closed {
			ew.mu.Unlock()
			return false
		}
		idle := len(ew.pending) == 0
		if idle || len(ew.pending)+len(line) <= maxPending {
			ew.pending = append(ew.pending, line...)
			ew.lines++
			ew.mu.Unlock()
			if idle {
				// Every empty -> non-empty transition posts a token, and the
				// goroutine only sleeps after seeing pending empty under mu,
				// so it cannot miss this line.
				select {
				case ew.wake <- struct{}{}:
				default:
				}
			}
			return true
		}
		ew.mu.Unlock()
		select {
		case <-ew.drained:
		case <-ew.exited:
		case <-ew.gone:
			return false
		}
	}
}

// Close writes out everything appended so far, stops the goroutine and waits
// for it to exit.  It returns the stream's write error, if any.
func (ew *Writer) Close() error {
	ew.mu.Lock()
	ew.closed = true
	ew.mu.Unlock()
	select {
	case ew.wake <- struct{}{}:
	default:
	}
	<-ew.exited
	return ew.err // settled: the goroutine wrote it before exiting
}

// run is the writer goroutine: swap the pending buffer for the one just
// written, write and flush it, repeat; sleep only when nothing is pending.
func (ew *Writer) run() {
	defer close(ew.exited)
	var out []byte
	for {
		ew.mu.Lock()
		out, ew.pending = ew.pending, out[:0]
		lines := ew.lines
		ew.lines = 0
		closed := ew.closed
		ew.mu.Unlock()
		if len(out) == 0 {
			if closed {
				return
			}
			<-ew.wake
			continue
		}
		select {
		case ew.drained <- struct{}{}:
		default:
		}
		_, err := ew.w.Write(out)
		if err == nil {
			err = ew.rc.Flush()
			if errors.Is(err, http.ErrNotSupported) {
				err = nil // a ResponseWriter that cannot flush delivers on its own schedule
			}
		}
		if err != nil {
			// The client hung up; its request context cancels the search.
			ew.mu.Lock()
			ew.err = err
			ew.mu.Unlock()
			return
		}
		ew.stats.Events.Add(int64(lines))
		ew.stats.Flushes.Add(1)
	}
}
