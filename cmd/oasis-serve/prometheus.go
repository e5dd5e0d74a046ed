package main

import (
	"fmt"
	"net/http"
	"sort"
	"strings"

	"repro/internal/ndjson"
)

// wantsPrometheus reports whether a /metrics request asked for the Prometheus
// text exposition format instead of the JSON snapshot: either explicitly via
// ?format=prometheus, or through an Accept header preferring text/plain (the
// Prometheus scraper sends "text/plain; version=0.0.4").
func wantsPrometheus(r *http.Request) bool {
	if r.URL.Query().Get("format") == "prometheus" {
		return true
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") || strings.Contains(accept, "version=0.0.4")
}

// writePrometheus renders the /metrics snapshot in the Prometheus text
// exposition format (version 0.0.4).  The fault-tolerance counters —
// degraded_queries_total, shard_quarantined, checksum_failures_total,
// retries_total — are the alerting surface for partial-failure serving; the
// rest mirrors the JSON snapshot (traffic, admission, per-endpoint latency).
func (s *server) writePrometheus(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	st := s.eng.Stats()
	em := s.eng.Metrics()

	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	counter("queries_served_total", "Queries served since process start.", st.QueriesServed)
	counter("hits_reported_total", "Hits streamed to clients since process start.", st.HitsReported)
	counter("degraded_queries_total",
		"Queries that completed with partial results from surviving shards.",
		em.Faults.DegradedQueries)
	gauge("shard_quarantined",
		"Shards quarantined: failed at open plus dropped mid-query over the process lifetime.",
		em.Faults.ShardsQuarantined)
	counter("checksum_failures_total",
		"Disk index blocks that failed CRC32C verification (after one re-read).",
		em.Faults.ChecksumFailures)
	counter("retries_total",
		"Transient disk read errors retried with backoff.",
		em.Faults.ReadRetries)

	mm := em.Mutable
	gauge("index_generation",
		"Current index generation; bumps on every insert, delete and compaction.",
		int64(mm.Generation))
	counter("inserts_total", "Sequences inserted since process start.", mm.Inserts)
	counter("deletes_total", "Sequences tombstoned since process start.", mm.Deletes)
	counter("compactions_total", "Mutable-layer compactions completed.", mm.Compactions)
	gauge("memtable_sequences", "Inserted sequences not yet compacted.", int64(mm.MemtableSequences))
	gauge("delta_layers", "Searchable delta layers over the base index.", int64(mm.DeltaLayers))
	gauge("tombstones", "Deleted sequences still physically present.", int64(mm.Tombstones))
	gauge("live_sequences", "Searchable sequences after tombstone filtering.", int64(mm.LiveSequences))

	adm := s.adm.snapshot()
	gauge("admission_active", "Search and batch requests in flight.", int64(adm.Active))
	counter("admission_admitted_total", "Requests admitted.", adm.Admitted)
	counter("admission_rejected_total", "Requests rejected with 429 (client's in-flight bound reached).", adm.Rejected)

	if co := s.cfg.coordinator; co != nil {
		// Coordinator fan-out robustness counters: the alerting surface for a
		// distributed deployment.  remote_slice_failures_total firing means a
		// whole slice exhausted every replica (queries degraded or failed);
		// remote_failovers_total and remote_hedge_wins_total rising without it
		// means the replica sets are absorbing faults as designed.
		rm := co.RemoteMetrics()
		counter("remote_streams_total", "Slice streams served by the coordinator fan-out.", rm.Streams)
		counter("remote_attempts_total", "Stream attempts issued (first tries + retries).", rm.Attempts)
		counter("remote_retries_total", "Re-attempts after a failed stream attempt.", rm.Retries)
		counter("remote_failovers_total", "Re-attempts that switched to another replica.", rm.Failovers)
		counter("remote_hedges_total", "Hedge requests launched against tail-slow replicas.", rm.Hedges)
		counter("remote_hedge_wins_total", "Hedge requests whose response won the race.", rm.HedgeWins)
		counter("remote_slice_failures_total", "Slice streams that exhausted every attempt.", rm.SliceFailures)
		fmt.Fprintf(w, "# HELP remote_replica_up Replica health: 1 up, 0.5 degraded, 0 down.\n")
		fmt.Fprintf(w, "# TYPE remote_replica_up gauge\n")
		for _, sh := range co.Health() {
			for _, r := range sh.Replicas {
				v := "0"
				switch r.State {
				case "up":
					v = "1"
				case "degraded":
					v = "0.5"
				}
				fmt.Fprintf(w, "remote_replica_up{slice=\"%d\",replica=%q} %s\n", sh.Slice, r.Addr, v)
			}
		}
	}

	// Events per flush is how well the streaming endpoints coalesce: hits
	// released together share one write.  A ratio near 1 on a slow stream
	// means the search, not the wire, is pacing it.
	wire := []struct {
		endpoint string
		stats    *ndjson.Stats
	}{{"batch", &s.batchWire}, {"search", &s.searchWire}}
	fmt.Fprintf(w, "# HELP events_written_total NDJSON event lines written to result streams.\n")
	fmt.Fprintf(w, "# TYPE events_written_total counter\n")
	for _, e := range wire {
		fmt.Fprintf(w, "events_written_total{endpoint=%q} %d\n", e.endpoint, e.stats.Events.Load())
	}
	fmt.Fprintf(w, "# HELP flushes_total Write+flush rounds that carried those lines.\n")
	fmt.Fprintf(w, "# TYPE flushes_total counter\n")
	for _, e := range wire {
		fmt.Fprintf(w, "flushes_total{endpoint=%q} %d\n", e.endpoint, e.stats.Flushes.Load())
	}

	labels := make([]string, 0, len(s.lat))
	for label := range s.lat {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	fmt.Fprintf(w, "# HELP request_duration_seconds End-to-end request latency per endpoint.\n")
	fmt.Fprintf(w, "# TYPE request_duration_seconds histogram\n")
	for _, label := range labels {
		snap := s.lat[label].snapshot()
		for _, b := range snap.Buckets {
			le := "+Inf"
			if b.LeMs >= 0 {
				le = fmt.Sprintf("%g", b.LeMs/1e3)
			}
			fmt.Fprintf(w, "request_duration_seconds_bucket{endpoint=%q,le=%q} %d\n", label, le, b.Count)
		}
		fmt.Fprintf(w, "request_duration_seconds_sum{endpoint=%q} %g\n", label, snap.SumMs/1e3)
		fmt.Fprintf(w, "request_duration_seconds_count{endpoint=%q} %d\n", label, snap.Count)
	}
}
