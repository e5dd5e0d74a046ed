package main

import (
	"fmt"
	"log"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/diskst"
	"repro/internal/remote"
	"repro/internal/shard"
)

// runShardServer serves one corpus slice — an index directory — over the
// shard wire protocol (package repro/internal/remote) for a coordinator to
// fan out to.  The
// serving surface is deliberately bare: a slice engine behind POST
// /oasis/shard/stream and GET /oasis/shard/info, plus health and metrics.
// No admission control runs here — a shard server sees per-slice fragments
// of queries, so fairness belongs to the coordinator, which sees whole
// queries and whole clients.
func runShardServer(f serveFlags) error {
	if err := checkSizes(f); err != nil {
		return err
	}
	if f.coordinator || f.slices != "" {
		return fmt.Errorf("-shard-server and -coordinator are mutually exclusive: a coordinator connects TO shard servers")
	}
	if f.allowDegr {
		// A degraded slice would stream partial results that the coordinator
		// merges as if they were the whole slice — silently wrong globally.
		// Refusing to start keeps the failure visible: the coordinator fails
		// over to a healthy replica (or degrades the whole slice explicitly).
		return fmt.Errorf("-allow-degraded is not supported with -shard-server: a partial slice would be merged as if complete; let this replica fail so the coordinator fails over")
	}

	if f.dbPath != "" || f.indexDir == "" {
		return fmt.Errorf("-shard-server serves one slice index directory (oasis-build -out): give -index-dir, not -db")
	}

	build := time.Now()
	log.Printf("opening slice index %s ...", f.indexDir)
	dir, err := diskst.OpenDir(f.indexDir, f.poolMB<<20, false)
	if err != nil {
		return err
	}
	eng, err := shard.OpenDiskEngine(dir)
	if err != nil {
		return err
	}

	rs := remote.NewServer(eng)
	info := rs.Info()
	log.Printf("shard server ready: %d sequences (%d residues), %d shards disk-backed (<=%d MB pool per shard), ready in %s",
		info.Sequences, info.Residues, info.Shards, f.poolMB, time.Since(build).Round(time.Millisecond))

	var notReady atomic.Bool
	mux := shardServerMux(rs, dir, &notReady)

	log.Printf("serving slice on %s", f.addr)
	return serveUntilSignal(f, mux, func() { notReady.Store(true) }, nil, func() error {
		if err := eng.Close(); err != nil {
			return err
		}
		st := rs.Stats()
		log.Printf("bye: served %d slice streams (%d cancelled)", st.Streams, st.Cancelled)
		return nil
	})
}

// shardServerMux is a shard server's whole HTTP surface: the wire protocol,
// health, and metrics with the buffer pools of the slice's index directory.
func shardServerMux(rs *remote.Server, dir *diskst.Dir, notReady *atomic.Bool) *http.ServeMux {
	info := rs.Info()
	mux := http.NewServeMux()
	rs.Register(mux)
	mux.HandleFunc("GET /healthz/live", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
	})
	mux.HandleFunc("GET /healthz/ready", func(w http.ResponseWriter, _ *http.Request) {
		if notReady.Load() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "not_ready", "reason": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"status": "ready", "slice": info})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		st := rs.Stats()
		if wantsPrometheus(r) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			fmt.Fprintf(w, "# HELP shard_streams_total Slice streams served.\n# TYPE shard_streams_total counter\nshard_streams_total %d\n", st.Streams)
			fmt.Fprintf(w, "# HELP shard_streams_cancelled_total Streams cancelled by the coordinator (hedge losses, early top-k, client disconnects).\n# TYPE shard_streams_cancelled_total counter\nshard_streams_cancelled_total %d\n", st.Cancelled)
			fmt.Fprintf(w, "# HELP shard_streams_active Streams running right now.\n# TYPE shard_streams_active gauge\nshard_streams_active %d\n", st.Active)
			fmt.Fprintf(w, "# HELP shard_events_written_total Event lines written to slice streams.\n# TYPE shard_events_written_total counter\nshard_events_written_total %d\n", st.EventsWritten)
			fmt.Fprintf(w, "# HELP shard_flushes_total Write+flush rounds that carried those lines.\n# TYPE shard_flushes_total counter\nshard_flushes_total %d\n", st.Flushes)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"server": st, "slice": info, "pools": dir.PoolStats()})
	})
	return mux
}
