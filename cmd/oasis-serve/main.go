// Command oasis-serve is the long-running OASIS search server: it builds (or
// opens) a warm sharded engine ONCE, and then serves many queries over HTTP,
// amortising index construction and searcher scratch across the whole query
// stream (the batch-engine counterpart of the paper's online search
// property: build once, serve many, stream top-k).
//
// The engine comes from one of two sources:
//
//	-db swissprot.fasta      load FASTA and index it in memory at startup
//	-index-dir swissprot.idx open a prebuilt sharded DISK index directory
//	                         (oasis-build -shards N); each shard is searched
//	                         through its own buffer pool (-pool MB per
//	                         shard) and keeps only its symbols (1 byte per
//	                         residue) and catalog resident, so the server
//	                         can serve indexes bigger than RAM and shard
//	                         parallelism also parallelises page I/O
//
// The shard count is the index directory's, chosen once by oasis-build
// -shards N; a -db engine is one in-memory shard.  A prefix-partitioned
// directory an older build wrote is refused at startup, naming the rebuild
// (oasis-build -shards N).
//
// # Endpoints
//
// POST /search runs one query.  Request body (JSON):
//
//	{"query":"DKDGDGCITTKEL",  // residue string, required
//	 "id":"q1",                // optional stream label
//	 "evalue":20000,           // optional E-value threshold (default -evalue)
//	 "min_score":45,           // optional explicit threshold (overrides evalue)
//	 "top":5}                  // optional top-k truncation
//
// The response is an NDJSON stream (Content-Type application/x-ndjson) of
// hits in decreasing score order, delivered online: a line is never held back
// waiting for a later one, a full buffer or a timer, but lines the search
// produces together (the hits one bound drop releases) travel in one write
// (internal/ndjson; /metrics reports events_written_total and flushes_total
// per endpoint).
//
//	{"type":"hit","query_id":"q1","rank":1,"seq_id":"SYN|P00063","score":37,"evalue":0.43}
//	...
//	{"type":"done","query_id":"q1","hits":5,"elapsed_ms":4.2,"stats":{...work counters...}}
//
// A query that fails mid-stream ends with {"type":"error", "error":"..."}
// instead of "done".  Invalid requests get HTTP 400 with {"error":"..."}.
//
// POST /batch accepts {"queries":[<search request>, ...]} and multiplexes
// every query's hit stream onto one NDJSON response; events carry query_id
// so clients demultiplex, each query's hits are decreasing-score, and every
// query ends with its own "done"/"error" event.  Batches of more than 256
// queries are rejected with HTTP 413; within a batch at most GOMAXPROCS
// queries are in flight, each sweeping only while it holds a search slot.
//
// "evalue", "min_score" and "top" must not be negative (HTTP 400 naming the
// field); 0 or absent means "use the default".
//
// # Growing the served corpus: /insert, /delete, /compact
//
// The engine is incrementally indexable: writes land in an in-memory delta
// layer (the memtable, whose suffix tree each insert rebuilds) and become
// searchable immediately, without rebuilding or reopening the base index.
//
// POST /insert adds one sequence.  Request and response (JSON):
//
//	{"id":"SYN|NEW1","sequence":"DKDGDGCITTKEL"}
//	-> {"status":"ok","id":"SYN|NEW1","generation":7,
//	    "memtable_sequences":3,"tombstones":0}
//
// The id must be unique among live sequences and the sequence must be over
// the served database's alphabet; violations get HTTP 400 with
// {"error":"..."}.  The returned generation is the index generation the
// write produced — every search from then on sees the new sequence.
//
// POST /delete tombstones one live sequence by id ({"id":"SYN|NEW1"}); the
// response has the same shape as /insert.  Deleted sequences are filtered
// from result streams at merge time; they stay physically present, since no
// compaction reclaims them.
//
// POST /compact (empty body) seals the memtable's index as one more layer
// beside the base shards and responds
// {"status":"ok","generation":8,"compacted":true,...} ("compacted":false when
// there was nothing to do).  Hits do not change, and sealed layers and
// deleted sequences accumulate (-db: until restart).  For -index-dir engines
// this writes the memtable as a delta shard file and atomically swaps a new
// manifest generation — until then, inserts and deletes live only in memory
// (there is no write-ahead log), so ingest pipelines should compact after a
// bulk load.  -compact-after N triggers the same seal automatically in the
// background once the memtable holds N sequences.  Mutations during graceful
// shutdown are shed with HTTP 503.
//
// # Fair search slots
//
// Every query searches the index: the server keeps no replies, so it holds
// only its index, its buffer pools and the queries in flight.  Every search
// and batch request starts at once; the engine bounds the DP sweeps instead,
// to GOMAXPROCS search slots.  A query holds one only while it sweeps — not
// while it waits for a client that is not reading or, on a coordinator,
// waits on its slices — and queues for one in FIFO order, where each client
// (X-Client-ID header, else remote address) holds one place however many
// requests it has in flight: an interactive /search waits for a slot, not
// for whole batches.
// A client with 64 requests in flight gets HTTP 429.  X-Client-ID is trusted as sent; in front of untrusted
// callers, strip or overwrite it at the ingress proxy so the remote-address
// fallback applies.
//
// GET /metrics returns a JSON resource snapshot for capacity planning:
//
//	{"engine":{"scratch":{...free-list reuse...},
//	           "shards":[{"shard":0,"active":1},...],
//	           "pools":[{"shard":0,"file":"shard-0.oasis","requests":512,"hits":498,"hit_ratio":0.97},...]},
//	 "latency":{"search":{"count":42,"mean_ms":3.1,"max_ms":17.8,
//	            "buckets":[{"le_ms":0.25,"count":0},...,{"le_ms":-1,"count":42}]},
//	            "batch":{...},"healthz_ready":{...},"metrics":{...}},
//	 "admission":{"active":2,"admitted":130,"rejected":4},
//	 "queries_served":128,"hits_reported":3072,"max_batch":256}
//
// "pools" is present only for -index-dir engines: one entry per buffer pool —
// the base shards, then every compacted delta layer under its file name.
// "admission" counts search and batch requests in flight, admitted and
// refused with 429.  "latency" holds one histogram per endpoint, measured
// from request decode through the last streamed event; bucket counts are
// cumulative with upper bounds in milliseconds and le_ms -1 marking the
// unbounded bucket.
//
// With Accept: text/plain (the Prometheus scraper sends "text/plain;
// version=0.0.4") or ?format=prometheus, /metrics renders the Prometheus text
// exposition instead, including the fault-tolerance counters
// degraded_queries_total, shard_quarantined, checksum_failures_total and
// retries_total, the incremental-indexing series (index_generation,
// inserts_total, deletes_total, compactions_total, memtable_sequences,
// delta_layers, tombstones, live_sequences) and per-endpoint
// request_duration_seconds histograms.
//
// # Deadlines, overload and partial failure
//
// -query-timeout bounds each query's wall clock, its wait for a search slot
// included: a stream that outlives it is cancelled and ends with an "error"
// event.  A query waits at most 10 s for a search slot: past that, a request
// none of whose events has been written is shed with HTTP 503 and
// Retry-After: 10, and a query later in a streaming batch ends with an
// "error" event saying the engine is saturated.
//
// When a shard fails mid-query (I/O error, checksum corruption), the shard is
// QUARANTINED rather than fatal: the stream completes from the surviving
// shards and its "done" event carries "degraded":true with per-shard errors
// under stats.shard_errors (mid-stream degradation is also flagged in the
// X-Oasis-Partial trailer).  -strict fails such queries outright instead.
// -allow-degraded extends the same policy to startup: an -index-dir whose
// shard file(s) cannot be opened serves the surviving shards, every response
// uses HTTP 206 and /healthz/ready reports the quarantined shard count.
//
// # Scaling out: -shard-server and -coordinator
//
// One process serves one corpus.  To scale past that, split the corpus into
// sequence-disjoint SLICES (oasis-build one index directory per slice), serve
// each slice from its own processes, and put a coordinator in front:
//
//	oasis-serve -shard-server -index-dir slice0.idx -addr :9001
//	oasis-serve -shard-server -index-dir slice0.idx -addr :9002   # replica
//	oasis-serve -shard-server -index-dir slice1.idx -addr :9003
//	oasis-serve -coordinator -slices 'h1:9001|h1:9002,h2:9003' -addr :8080
//
// -slices lists one entry per slice, comma-separated, with "|" separating a
// slice's replicas; slice order defines the global sequence numbering.
//
// A shard server is a bare slice engine behind the wire protocol (package
// repro/internal/remote): POST /oasis/shard/stream runs one query against the
// slice and streams NDJSON (hit, bound) events — the slice's locally merged
// decreasing-score stream plus a decreasing upper bound on everything it can
// still report — and GET /oasis/shard/info describes the slice (sequence and
// residue counts, alphabet).  No admission or search slots run here: they
// belong to the coordinator, which sees whole queries.
//
// The coordinator opens every slice at startup, lays out the global sequence
// index space, and serves the standard /search, /batch, /metrics endpoints.
// Each query fans out to one replica per slice and the event streams merge
// through the same strict-release rule a single-process engine uses, so the
// merged stream is byte-identical to serving the concatenated corpus locally.
// Per-attempt robustness is client-side, with fixed settings (constants of
// internal/remote): up to max(3, 2x replicas) attempts per slice per query
// with jittered 5..250 ms backoff, failover to the next replica (resuming the
// slice's deterministic stream without duplicating or dropping hits), a hedged
// request onto a second replica once the first has been silent for the p95 of
// observed first-event latencies (first byte wins, the loser is cancelled),
// and degraded completion through the standard quarantine path when every
// replica of a slice is down (-strict opts out; the response is then an
// error).  Each ATTEMPT has 2 s to connect and 10 s to produce response
// headers, independently of the whole-query -query-timeout.  /metrics gains
// the fan-out counters (attempts, retries, failovers, hedges, hedge wins,
// slice failures) and per-replica
// health; the Prometheus rendering adds remote_*_total series and a
// remote_replica_up gauge.  /insert, /delete and /compact refuse on a
// coordinator: writes belong to the processes that own the slices.
//
// # Liveness and readiness
//
// GET /healthz/live answers 200 whenever the process can serve HTTP at all.
// GET /healthz/ready answers 200 only when the server should receive traffic:
// 503 while draining for shutdown, and in coordinator mode 503 when any slice
// has no live replica.  Its body describes the database (shards,
// shards_quarantined, sequences, residues) and, on a coordinator, per-slice
// replica health ("up"/"degraded"/"down"); a shard server's names its slice.
// The lifetime query and hit counters are on /metrics.
// On SIGTERM the server flips not-ready first and waits -drain-grace so load
// balancers stop routing, then sheds new work and finishes in-flight streams
// within 30 s.  Keep-alive connections idle for 2 minutes are closed.
//
// Example:
//
//	oasis-serve -db swissprot.fasta -addr :8080
//	oasis-serve -index-dir swissprot.idx -pool 64 -addr :8080
//	curl -sN localhost:8080/search -d '{"query":"DKDGDGCITTKEL","top":5}'
//
// The server shuts down gracefully on SIGINT/SIGTERM: listeners close first,
// in-flight streams finish (bounded by 30 s), then the engine drains.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/oasis"
)

// Serving limits no command line has set are constants, not flags.  maxBatch
// is what newServer gives a zero serverConfig field; the rest are used by
// name.
const (
	// maxBatch is the most queries one /batch request may carry.
	maxBatch = 256
	// maxInFlightPerClient is how many search and batch requests one client
	// may have in flight before further ones get HTTP 429.
	maxInFlightPerClient = 64
	// slotWait is the longest a query waits for a search slot before it ends
	// with oasis.ErrSaturated: a request none of whose events has been
	// written yet is then shed with HTTP 503 + Retry-After.
	slotWait = 10 * time.Second
	// shutdownTimeout bounds the graceful drain of in-flight streams.
	shutdownTimeout = 30 * time.Second
	// idleTimeout closes keep-alive connections idle this long.
	idleTimeout = 2 * time.Minute
)

// serveFlags bundles the command-line configuration.
type serveFlags struct {
	addr         string
	dbPath       string
	indexDir     string
	poolMB       int64
	alphabet     string
	matrix       string
	gap          int
	eValue       float64
	queryTimeout time.Duration
	strict       bool
	allowDegr    bool
	compactAfter int

	// Distributed-serving topology (see the package doc's "Scaling out").
	shardServer bool
	coordinator bool
	slices      string
	drainGrace  time.Duration
}

func main() {
	var f serveFlags
	flag.StringVar(&f.addr, "addr", ":8080", "listen address")
	flag.StringVar(&f.dbPath, "db", "", "FASTA database to index in memory and serve")
	flag.StringVar(&f.indexDir, "index-dir", "", "prebuilt sharded disk index directory (oasis-build -shards) to serve instead of -db")
	flag.Int64Var(&f.poolMB, "pool", 64, "per-shard buffer pool size in MB (with -index-dir); a shard holds its pool, plus 1 byte per residue for its resident symbols, plus its catalog")
	flag.StringVar(&f.alphabet, "alphabet", "protein", "alphabet: protein or dna (with -db; -index-dir reads it from the manifest)")
	flag.StringVar(&f.matrix, "matrix", "PAM30", "substitution matrix")
	flag.IntVar(&f.gap, "gap", -10, "linear gap penalty (negative)")
	flag.Float64Var(&f.eValue, "evalue", 20000, "default E-value threshold for queries that do not set one")
	flag.DurationVar(&f.queryTimeout, "query-timeout", 0, "per-query wall-clock budget; exceeded queries end with an error event (0 = no limit)")
	flag.BoolVar(&f.strict, "strict", false, "fail queries outright when a shard fails instead of serving degraded results from the survivors")
	flag.BoolVar(&f.allowDegr, "allow-degraded", false, "start serving even when shard files fail to open (with -index-dir): failed shards are quarantined and every query reports degraded")
	flag.IntVar(&f.compactAfter, "compact-after", 0, "compact the mutable layer in the background once this many inserted sequences accumulate (0 = only explicit POST /compact)")
	flag.BoolVar(&f.shardServer, "shard-server", false, "serve one corpus slice over the shard wire protocol for a coordinator (bare slice engine: no admission control)")
	flag.BoolVar(&f.coordinator, "coordinator", false, "serve by fanning queries out to the remote shard servers in -slices instead of a local index")
	flag.StringVar(&f.slices, "slices", "", "coordinator slice topology: one entry per slice, comma-separated, with '|' separating a slice's replica addresses (e.g. 'h1:9001|h1:9002,h2:9003')")
	flag.DurationVar(&f.drainGrace, "drain-grace", 0, "after SIGTERM, stay live but not ready this long before shedding new work, so load balancers stop routing first")
	flag.Parse()
	var err error
	if f.shardServer {
		err = runShardServer(f)
	} else {
		err = run(f)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "oasis-serve:", err)
		os.Exit(1)
	}
}

// parseSlices parses the -slices topology: "," separates slices, "|"
// separates a slice's replicas.  Slice order defines the global sequence
// numbering, so the same -slices value must be used across coordinator
// restarts for stable sequence indexes.
func parseSlices(spec string) ([][]string, error) {
	if spec == "" {
		return nil, fmt.Errorf("-coordinator requires -slices")
	}
	var slices [][]string
	for i, entry := range strings.Split(spec, ",") {
		var replicas []string
		for _, addr := range strings.Split(entry, "|") {
			if addr = strings.TrimSpace(addr); addr != "" {
				replicas = append(replicas, addr)
			}
		}
		if len(replicas) == 0 {
			return nil, fmt.Errorf("-slices entry %d is empty", i)
		}
		slices = append(slices, replicas)
	}
	return slices, nil
}

// loadSource validates the -db / -index-dir / -alphabet combination both local
// serving modes take and loads the FASTA database when -db is the source; a
// nil database means "serve f.indexDir".
func loadSource(f serveFlags) (*oasis.Database, error) {
	if f.indexDir != "" {
		if f.dbPath != "" {
			return nil, fmt.Errorf("-db and -index-dir are mutually exclusive")
		}
		return nil, nil
	}
	if f.dbPath == "" {
		return nil, fmt.Errorf("either -db or -index-dir is required")
	}
	alpha := oasis.Protein
	if f.alphabet == "dna" {
		alpha = oasis.DNA
	} else if f.alphabet != "protein" {
		return nil, fmt.Errorf("unknown alphabet %q", f.alphabet)
	}
	log.Printf("loading %s ...", f.dbPath)
	return oasis.LoadFASTA(f.dbPath, alpha)
}

// buildEngine assembles the warm engine from either source: a one-shard
// in-memory index built from FASTA, or a prebuilt sharded disk index
// directory.  The flags fill the engine's options once; the fields of the
// source not in use do not apply.
func buildEngine(f serveFlags) (*oasis.Engine, string, error) {
	db, err := loadSource(f)
	if err != nil {
		return nil, "", err
	}
	if db == nil {
		log.Printf("opening sharded disk index %s ...", f.indexDir)
	}
	eng, err := oasis.NewEngine(db, oasis.EngineOptions{
		IndexDir:      f.indexDir,
		PoolBytes:     f.poolMB << 20,
		AllowDegraded: f.allowDegr,
	})
	if err != nil {
		return nil, "", err
	}
	if db != nil {
		return eng, "in-memory", nil
	}
	for _, q := range eng.Standing() {
		log.Printf("WARNING: shard %d quarantined at open: %s (serving degraded)", q.Shard, q.Err)
	}
	return eng, fmt.Sprintf("disk-backed (<=%d MB pool per shard)", f.poolMB), nil
}

// buildCoordinator opens the remote slice topology and wraps it in a warm
// engine, so the standard HTTP front end (admission, search slots, NDJSON
// streaming) runs unchanged in front of the fan-out.
func buildCoordinator(f serveFlags) (*oasis.Engine, string, *oasis.Coordinator, error) {
	if f.dbPath != "" || f.indexDir != "" {
		return nil, "", nil, fmt.Errorf("-coordinator serves remote slices; it takes no -db or -index-dir")
	}
	if f.allowDegr {
		return nil, "", nil, fmt.Errorf("-allow-degraded applies to -index-dir engines; a coordinator degrades per query when a whole slice is down (use -strict to refuse instead)")
	}
	if f.compactAfter != 0 {
		return nil, "", nil, fmt.Errorf("-compact-after needs a local mutable index; a coordinator cannot write (compact on the shard servers)")
	}
	slices, err := parseSlices(f.slices)
	if err != nil {
		return nil, "", nil, err
	}
	log.Printf("connecting to %d slices ...", len(slices))
	co, err := oasis.OpenCoordinator(context.Background(),
		oasis.CoordinatorOptions{Slices: slices}, oasis.EngineOptions{})
	if err != nil {
		return nil, "", nil, err
	}
	replicas := 0
	for _, s := range slices {
		replicas += len(s)
	}
	mode := fmt.Sprintf("coordinator over %d slices (%d replicas)", len(slices), replicas)
	return co.Engine(), mode, co, nil
}

// checkSizes refuses a negative -pool, which would otherwise mean the default
// pool, before anything is opened.
func checkSizes(f serveFlags) error {
	if f.poolMB < 0 {
		return fmt.Errorf("-pool must not be negative, got %d", f.poolMB)
	}
	return nil
}

func run(f serveFlags) error {
	if err := checkSizes(f); err != nil {
		return err
	}
	matrix := oasis.MatrixByName(f.matrix)
	if matrix == nil {
		return fmt.Errorf("unknown matrix %q", f.matrix)
	}
	scheme, err := oasis.NewScheme(matrix, f.gap)
	if err != nil {
		return err
	}

	build := time.Now()
	var (
		eng  *oasis.Engine
		mode string
		co   *oasis.Coordinator
	)
	if f.coordinator {
		eng, mode, co, err = buildCoordinator(f)
	} else {
		eng, mode, err = buildEngine(f)
	}
	if err != nil {
		return err
	}
	// Fail fast on a matrix/index alphabet mismatch: the server would start
	// "healthy" and then reject every query at search time.
	if scheme.Matrix.Alphabet() != eng.Alphabet() {
		return fmt.Errorf("matrix %q is over the %s alphabet, but the served database holds %s sequences",
			f.matrix, scheme.Matrix.Alphabet().Name(), eng.Alphabet().Name())
	}
	log.Printf("warm engine ready: %d sequences (%d residues), %d shards %s, ready in %s",
		eng.NumSequences(), eng.TotalResidues(), eng.NumShards(), mode, time.Since(build).Round(time.Millisecond))

	handler := newServer(eng, serverConfig{
		scheme:        scheme,
		defaultEValue: f.eValue,
		slotWait:      slotWait,
		queryTimeout:  f.queryTimeout,
		strict:        f.strict,
		compactAfter:  f.compactAfter,
		coordinator:   co,
	})
	closeEngine := eng.Close
	if co != nil {
		closeEngine = co.Close
	}
	log.Printf("serving on %s", f.addr)
	return serveUntilSignal(f, handler, handler.setNotReady, handler.startDrain, func() error {
		if err := closeEngine(); err != nil {
			return err
		}
		st := eng.Stats()
		log.Printf("bye: served %d queries, %d hits", st.QueriesServed, st.HitsReported)
		return nil
	})
}

// serveUntilSignal is the serving lifecycle every mode shares: listen on
// -addr until SIGINT/SIGTERM, then readiness first — onNotReady flips
// /healthz/ready to 503 while the server keeps accepting work for
// -drain-grace, so load balancers route new traffic elsewhere before anything
// is shed — then onDrain (nil for a server that sheds nothing) stops admitting
// new work so that shutdownTimeout is spent finishing admitted streams, and
// closeFn releases the engine once the listener has drained.
func serveUntilSignal(f serveFlags, handler http.Handler, onNotReady, onDrain func(), closeFn func() error) error {
	srv := &http.Server{
		Addr:              f.addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       idleTimeout,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	onNotReady()
	if f.drainGrace > 0 {
		next := "closing listeners"
		if onDrain != nil {
			next = "shedding new work"
		}
		log.Printf("not ready; draining for %s before %s ...", f.drainGrace, next)
		time.Sleep(f.drainGrace)
	}
	log.Printf("shutting down (waiting up to %s for in-flight streams) ...", shutdownTimeout)
	if onDrain != nil {
		onDrain()
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return closeFn()
}
