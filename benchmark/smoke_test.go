package main

import (
	"context"
	"io"
	"math"
	"net"
	"testing"
	"time"
)

// smokeScale shrinks every input so all four workloads, traced, run in a few
// seconds: ~20k residues, a few hundred queries, a second of timed phases.
var smokeScale = scale{residues: 20_000, heldOut: 900, queries: 3000, warmup: 10, setups: 1, ladder: 20, ladderInserts: 20}

// TestSmoke runs every workload once at tiny scale as a traced run (which
// measures the end-to-end metrics too) and checks that each emits every
// metric BENCHMARK.json names, finite and in the named unit, that nothing
// else is emitted, that the oracle passed, and that no server process or
// listening port outlives the run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the server binaries and starts child processes")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	named := map[string]string{}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		named[m.Name] = m.Unit
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	cfg := runConfig{
		root: root, spec: spec, sc: smokeScale, seed: 7, seconds: 1.2, traced: true,
		outDir: t.TempDir(), buildDir: t.TempDir(), minChecked: 5,
	}
	for i := range workloads {
		w := &workloads[i]
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, spec.Workloads[i].Name, w.name)
		}
		res, err := runOne(ctx, cfg, w, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed != 0 || res.OracleChecked < cfg.minChecked {
			t.Errorf("%s: %d of %d requests failed, oracle checked %d: %v", w.name, res.Failed, res.Attempted, res.OracleChecked, res.Failures)
		}
		for _, specs := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
			if _, err := selectMetrics(res, specs); err != nil {
				t.Error(err)
			}
		}
		for _, m := range spec.EndToEnd {
			if v := res.Metrics[m.Name].Value; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive number", w.name, m.Name, v)
			}
		}
		for name, v := range res.Metrics {
			if unit, ok := named[name]; !ok || unit != v.Unit {
				t.Errorf("%s: emitted %s in %q, BENCHMARK.json has unit %q (named: %v)", w.name, name, v.Unit, unit, ok)
			}
		}
		if hr := res.Metrics["qcache.hit_rate"]; hr.Value >= 0.01 {
			t.Errorf("%s: result-cache hit rate %.3f: requests repeat", w.name, hr.Value)
		}
		if len(res.procs) == 0 {
			t.Errorf("%s: no server processes recorded", w.name)
		}
		for _, p := range res.procs {
			if !p.exited() {
				t.Errorf("%s: %s (pid %d) still running", w.name, p.name, p.cmd.Process.Pid)
			}
			if conn, err := net.DialTimeout("tcp", p.addr, 200*time.Millisecond); err == nil {
				conn.Close()
				t.Errorf("%s: %s still listening on %s", w.name, p.name, p.addr)
			}
		}
	}
}

// TestOracleCatchesCorruption feeds compareHits a correct list and then
// every kind of damage a wrong server could do to it.
func TestOracleCatchesCorruption(t *testing.T) {
	want := map[string]int{"A": 50, "B": 40, "C": 40, "D": 31}
	good := []hitRow{{"A", 50}, {"C", 40}, {"B", 40}, {"D", 31}}
	if err := compareHits(good, 0, want, nil); err != nil {
		t.Fatalf("correct full stream rejected: %v", err)
	}
	if err := compareHits(good[:3], 3, want, nil); err != nil {
		t.Fatalf("correct top-3 rejected: %v", err)
	}
	if err := compareHits(append(good[:4:4], hitRow{"NEW", 20}), 0, want, map[string]int{"NEW": 20}); err != nil {
		t.Fatalf("optional insert rejected: %v", err)
	}
	bad := map[string][]hitRow{
		"wrong score":      {{"A", 49}, {"C", 40}, {"B", 40}, {"D", 31}},
		"missing sequence": {{"A", 50}, {"C", 40}, {"D", 31}},
		"duplicate":        {{"A", 50}, {"C", 40}, {"C", 40}, {"B", 40}, {"D", 31}},
		"rising order":     {{"C", 40}, {"A", 50}, {"B", 40}, {"D", 31}},
		"unknown sequence": {{"A", 50}, {"C", 40}, {"B", 40}, {"D", 31}, {"Z", 30}},
	}
	for name, rows := range bad {
		if err := compareHits(rows, 0, want, nil); err == nil {
			t.Errorf("full stream with %s accepted", name)
		}
	}
	if err := compareHits([]hitRow{{"C", 40}, {"B", 40}, {"D", 31}}, 3, want, nil); err == nil {
		t.Error("top-3 that omits the best sequence accepted")
	}
	if err := compareHits(good[:2], 3, want, nil); err == nil {
		t.Error("top-3 with two hits of four qualifying accepted")
	}
	if err := compareHits([]hitRow{{"A", 50}, {"NEW", 45}, {"B", 40}}, 3, want, map[string]int{"NEW": 44}); err == nil {
		t.Error("optional insert with a wrong score accepted")
	}
}

// TestQuartilesMatchPython pins the spread computation to the values
// statistics.quantiles(v, n=4) gives, since acceptance is judged with it.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{12, 15, 11, 19, 14, 13, 18, 16, 17, 10})
	if math.Abs(q1-11.75) > 1e-9 || math.Abs(q3-17.25) > 1e-9 {
		t.Errorf("quartiles = %v, %v; Python gives 11.75, 17.25", q1, q3)
	}
}
