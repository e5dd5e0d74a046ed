// Command benchmark is the repository's benchmark: it generates a corpus and
// a query list from a seed, builds and starts the unmodified oasis-build and
// oasis-serve binaries as child processes, drives one of four live-server
// workloads over HTTP, checks the answers against Smith-Waterman and prints
// every metric BENCHMARK.json names.  See README.md in this directory.
//
//	go run ./benchmark -workload mem-scan -seed 1 -seconds 18 -trace 0
//	go run ./benchmark -compare a/results.ndjson b/results.ndjson
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
)

// benchSpec is BENCHMARK.json: the one place metric names, units and bounds
// are fixed.  The harness refuses to report a metric the file does not name
// with the same unit, or to omit one it does.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// selectMetrics returns the metrics of res that specs names, failing on a
// missing name, a unit that differs, or a value that is not finite.
func selectMetrics(res *runResult, specs []metricSpec) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		v, ok := res.Metrics[s.Name]
		switch {
		case !ok:
			return nil, fmt.Errorf("%s: metric %s was not measured", res.Workload, s.Name)
		case v.Unit != s.Unit:
			return nil, fmt.Errorf("%s: metric %s measured in %q, BENCHMARK.json says %q", res.Workload, s.Name, v.Unit, s.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			return nil, fmt.Errorf("%s: metric %s is not finite", res.Workload, s.Name)
		}
		out[s.Name] = metricValue{Value: v.Value, Unit: v.Unit}
	}
	return out, nil
}

// runConfig is one invocation's settings.
type runConfig struct {
	root    string
	spec    *benchSpec
	sc      scale
	seed    int64
	seconds float64
	traced  bool
	outDir  string
	// buildDir holds the compiled binaries and each run's scratch files.
	buildDir string
	// minChecked is how many replies the oracle must have verified for the
	// run to count as correct.
	minChecked int
}

// runOne runs one workload end to end: inputs, binaries, measurement,
// result file, trace file.
func runOne(ctx context.Context, cfg runConfig, w *workload, stdout io.Writer) (*runResult, error) {
	in, err := generate(cfg.seed, cfg.sc)
	if err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	binDir := filepath.Join(cfg.buildDir, "bin")
	if err := buildBinaries(ctx, cfg.root, binDir); err != nil {
		return nil, err
	}
	workDir, err := os.MkdirTemp(cfg.buildDir, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)

	nproc := runtime.NumCPU()
	h := &harness{
		in: in, sc: cfg.sc, seconds: cfg.seconds,
		workDir:  workDir,
		buildBin: filepath.Join(binDir, "oasis-build"),
		serveBin: filepath.Join(binDir, "oasis-serve"),
		nproc:    nproc,
		client:   newHTTPClient(nproc),
		oracle:   newOracle(in),
	}
	defer h.client.CloseIdleConnections()
	h.clock = startClock()
	defer h.clock.close()
	if cfg.traced {
		h.trace = newTracer()
		h.sc.setups = 1
	}
	if err := h.writeCorpus(); err != nil {
		return nil, err
	}
	res, err := h.runWorkload(ctx, w, cfg.root)
	if err != nil {
		return nil, err
	}
	if cfg.traced {
		if err := h.runLadder(ctx, res.Metrics); err != nil {
			return nil, fmt.Errorf("layer ladder: %w", err)
		}
	}
	res.procs = h.procs
	printResult(stdout, res)

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	if err := appendResult(filepath.Join(cfg.outDir, "results.ndjson"), res); err != nil {
		return nil, err
	}
	if cfg.traced {
		path := filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-%d.json", w.name, cfg.seed))
		if err := h.trace.write(path, res); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "trace: %d spans in %s\n", len(h.trace.spans), path)
	}
	return res, nil
}

func appendResult(path string, res *runResult) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printResult writes the human-readable report: stamps, per-phase request
// accounting, every metric by name with its unit and sample count.
func printResult(w io.Writer, res *runResult) {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  traced %v  commit %s  %s  nproc %d  GOMAXPROCS %d\n",
		res.Workload, res.Seed, res.Seconds, res.Traced, res.Commit, res.GoVersion, res.NProc, res.GOMAXPROCS)
	fmt.Fprintf(w, "  %-14s %9s %10s %7s %9s %7s\n", "phase", "seconds", "calibrated", "sent", "succeeded", "failed")
	for _, p := range res.Phases {
		fmt.Fprintf(w, "  %-14s %9.2f %10.2f %7d %9d %7d\n", p.Name, p.Seconds, p.CalibratedSeconds, p.Sent, p.Succeeded, p.Failed)
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  oracle-checked %d\n", res.Attempted, res.Failed, res.OracleChecked)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  %-34s %14s %-6s %7s %14s\n", "metric", "value", "unit", "n", "wall-clock")
	for _, name := range names {
		v := res.Metrics[name]
		n, raw := "", ""
		if v.N > 0 {
			n = fmt.Sprint(v.N)
		}
		if v.Raw != 0 {
			raw = fmt.Sprintf("%14.4f", v.Raw)
		}
		fmt.Fprintf(w, "  %-34s %14.4f %-6s %7s %s\n", name, v.Value, v.Unit, n, raw)
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "all", "workload to run: mem-scan, disk-topk, ingest-mixed, coord-fanout or all")
		seed    = fs.Int64("seed", 1, "seed every input is generated from")
		seconds = fs.Float64("seconds", 0, "seconds the timed phases of one workload take in total (default: run_seconds of BENCHMARK.json)")
		traced  = fs.Int("trace", 0, "1 = the traced run: per-layer metrics, the layer ladder and a trace file; 0 = end-to-end metrics")
		outDir  = fs.String("out", "", "directory for results.ndjson and trace files (default: .bench_build/out in the checkout)")
		compare = fs.Bool("compare", false, "compare two result files given as arguments instead of running")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		if err := compareFiles(stdout, spec, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := runConfig{
		root: root, spec: spec, sc: fullScale, seed: *seed, seconds: *seconds,
		traced: *traced != 0, outDir: *outDir, buildDir: filepath.Join(root, ".bench_build"), minChecked: 40,
	}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(spec.RunSeconds)
	}
	if cfg.outDir == "" {
		cfg.outDir = filepath.Join(cfg.buildDir, "out")
	}
	var selected []*workload
	if *name == "all" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	} else if w := workloadByName(*name); w != nil {
		selected = append(selected, w)
	} else {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	code := 0
	for _, w := range selected {
		line, ok, err := measureAndReport(ctx, cfg, w, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		// The machine-readable result is the last line of a workload's
		// report (and so the last line of a one-workload run).
		fmt.Fprintln(stdout, line)
		if !ok {
			code = 1
		}
	}
	return code
}

// measureAndReport runs one workload and renders its machine-readable
// result line: the end-to-end metrics of an untraced run, the per-layer
// metrics of a traced one.
func measureAndReport(ctx context.Context, cfg runConfig, w *workload, stdout io.Writer) (line string, ok bool, err error) {
	res, err := runOne(ctx, cfg, w, stdout)
	if err != nil {
		return "", false, err
	}
	specs := cfg.spec.EndToEnd
	if cfg.traced {
		specs = cfg.spec.PerLayer
	}
	metrics, err := selectMetrics(res, specs)
	if err != nil {
		return "", false, err
	}
	ok = res.Failed == 0 && res.OracleChecked >= cfg.minChecked
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{ok, res.Attempted, res.Failed, metrics})
	return string(b), ok, err
}
