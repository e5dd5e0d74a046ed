package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// newHTTPClient returns the one client a run drives every server with: at
// most conns connections per server, kept alive across requests.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		IdleConnTimeout:     time.Minute,
	}}
}

// hitRow is one streamed hit as the oracle compares it.
type hitRow struct {
	seqID string
	score int
}

// searchReply is what the client observed for one /search request.
type searchReply struct {
	q *query
	// top is the request's top-k (0 = full stream).
	top int
	// due is when the request was scheduled (open loop); sent is when the
	// harness actually issued it.  Closed loops set due = sent.
	due, sent time.Time
	// firstByte is when response headers arrived, firstHit when the first
	// hit line was parsed (zero when the stream had none), done when the
	// terminal event was read.
	firstByte, firstHit, done time.Time
	hits                      int
	bytes                     int
	// rows is filled only for requests the oracle checks.
	rows []hitRow
	// err is any failure: transport, non-2xx, an "error" event, a stream
	// that ended without "done", or scores that increased.
	err error
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// searchBody renders the request JSON for a query.
func searchBody(q *query, top int) []byte {
	b := make([]byte, 0, 96+len(q.text))
	b = append(b, `{"id":"`...)
	b = append(b, q.id...)
	b = append(b, `","query":"`...)
	b = append(b, q.text...)
	b = append(b, `","min_score":`...)
	b = strconv.AppendInt(b, int64(q.minScore), 10)
	if top > 0 {
		b = append(b, `,"top":`...)
		b = strconv.AppendInt(b, int64(top), 10)
	}
	return append(b, '}')
}

var (
	hitPrefix  = []byte(`{"type":"hit"`)
	seqIDKey   = []byte(`"seq_id":"`)
	scoreKey   = []byte(`"score":`)
	donePrefix = []byte(`{"type":"done"`)
)

// search sends one /search and reads the NDJSON stream to its terminal
// event.  Hit lines are scanned by hand (prefix, seq_id, score) so the
// client's own cost per hit stays far below the server's; keep makes it also
// retain every (seq_id, score) for the oracle.
func search(ctx context.Context, client *http.Client, addr string, q *query, top int, due time.Time, keep bool) *searchReply {
	r := &searchReply{q: q, top: top, due: due}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+addr+"/search", bytes.NewReader(searchBody(q, top)))
	if err != nil {
		r.err = err
		return r
	}
	r.sent = time.Now()
	if r.due.IsZero() {
		r.due = r.sent
	}
	resp, err := client.Do(req)
	if err != nil {
		r.err = err
		r.done = time.Now()
		return r
	}
	defer resp.Body.Close()
	r.firstByte = time.Now()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		r.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		r.done = time.Now()
		return r
	}
	br := bufio.NewReaderSize(resp.Body, 32<<10)
	last := int(^uint(0) >> 1)
	terminal := false
	for {
		line, err := br.ReadSlice('\n')
		if len(line) > 0 {
			r.bytes += len(line)
			switch {
			case bytes.HasPrefix(line, hitPrefix):
				if r.hits == 0 {
					r.firstHit = time.Now()
				}
				r.hits++
				score, id := scanHit(line)
				if score > last && r.err == nil {
					r.err = fmt.Errorf("score rose from %d to %d at hit %d", last, score, r.hits)
				}
				last = score
				if keep {
					r.rows = append(r.rows, hitRow{seqID: string(id), score: score})
				}
			case bytes.HasPrefix(line, donePrefix):
				terminal = true
				var ev struct {
					Hits     int  `json:"hits"`
					Degraded bool `json:"degraded"`
				}
				if jerr := json.Unmarshal(line, &ev); jerr != nil && r.err == nil {
					r.err = fmt.Errorf("bad done event: %w", jerr)
				} else if (ev.Hits != r.hits || ev.Degraded) && r.err == nil {
					r.err = fmt.Errorf("done event reports %d hits (degraded=%v), stream carried %d", ev.Hits, ev.Degraded, r.hits)
				}
			default:
				terminal = true
				if r.err == nil {
					r.err = fmt.Errorf("unexpected event: %s", bytes.TrimSpace(line))
				}
			}
		}
		if err != nil {
			if err != io.EOF && r.err == nil {
				r.err = err
			}
			break
		}
	}
	r.done = time.Now()
	if !terminal && r.err == nil {
		r.err = fmt.Errorf("stream ended without a done event after %d hits", r.hits)
	}
	return r
}

// scanHit extracts score and seq_id from a hit line without a JSON decoder.
// A line it cannot read yields score -1, which the order check and the
// oracle both reject.
func scanHit(line []byte) (score int, id []byte) {
	score = -1
	if i := bytes.Index(line, seqIDKey); i >= 0 {
		rest := line[i+len(seqIDKey):]
		if j := bytes.IndexByte(rest, '"'); j >= 0 {
			id = rest[:j]
		}
	}
	if i := bytes.Index(line, scoreKey); i >= 0 {
		rest := line[i+len(scoreKey):]
		n := 0
		for n < len(rest) && rest[n] >= '0' && rest[n] <= '9' {
			n++
		}
		if v, err := strconv.Atoi(string(rest[:n])); err == nil {
			score = v
		}
	}
	return score, id
}

// post sends a small JSON body (insert, compact) and discards the reply.
// Non-2xx is an error carrying the body.
func post(ctx context.Context, client *http.Client, url string, body []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return nil
}

// getJSON fetches and decodes a JSON document (/metrics, /stats).
func getJSON(ctx context.Context, client *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
