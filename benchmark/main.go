// Command benchmark is drgpum's seeded end-to-end benchmark. One process
// runs one workload for a fixed time and prints, as the last line of its
// standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separately traced run reports the per-layer ones and writes its spans
// to --out. Every correctness oracle miss counts as a failed operation
// and makes the command exit non-zero. See README.md for the workloads,
// the metrics and the layer each one attributes.
//
// Build and run it from the repository root with
//
//	bash benchmark/run.sh --workload fig6 --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricDef names a metric and its unit. BENCHMARK.json declares the same
// lists (a test keeps the two in step).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the profiler sees. Every workload
// reports each of them, each under its own definition of the unit of work
// (README.md lists them).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_ms", "ms"},
	{"tail_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"report_ms", "ms"},
	{"resident_mb", "MB"},
}

// perLayer are the traced run's metrics, named after the module they
// attribute. A workload that does not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{"gpu.native_s", "s"},
	{"gpu.ns_per_access", "ns"},
	{"gpu.accesses", "count"},
	{"gpu.launches", "count"},
	{"gpu.apis", "count"},
	{"gpu.sim_cycles", "count"},
	{"overhead.object_x", "x"},
	{"overhead.intra_x", "x"},
	{"costmodel.delta_s", "s"},
	{"costmodel.transactions", "count"},
	{"costmodel.excess_ratio", "ratio"},
	{"costmodel.l1_hit_ratio", "ratio"},
	{"costmodel.l2_hit_ratio", "ratio"},
	{"costmodel.modeled_cycles", "count"},
	{"trace.replay_s", "s"},
	{"trace.ns_per_api", "ns"},
	{"trace.objects", "count"},
	{"intraobj.replay_s", "s"},
	{"intraobj.ns_per_access", "ns"},
	{"intraobj.host_maps", "count"},
	{"intraobj.detect_s", "s"},
	{"depgraph.annotate_s", "s"},
	{"peak.analyze_s", "s"},
	{"objlevel.detect_s", "s"},
	{"advisor.marginal_s", "s"},
	{"advisor.advise_s", "s"},
	{"core.finish_s", "s"},
	{"core.finish_other_s", "s"},
	{"core.snapshot_s", "s"},
	{"core.findings", "count"},
	{"core.windows_closed", "count"},
	{"core.apis_retired", "count"},
	{"core.export_text_s", "s"},
	{"core.export_json_s", "s"},
	{"gui.export_s", "s"},
	{"profile.save_s", "s"},
	{"export.bytes", "count"},
	{"engine.hit_ratio", "ratio"},
	{"engine.misses", "count"},
	{"engine.run_ms", "ms"},
	{"serve.submit_ms", "ms"},
	{"serve.status_ms", "ms"},
	{"serve.report_ms", "ms"},
	{"serve.polls_per_session", "count"},
	{"spans.overhead_pct", "%"},
	{"spans.count", "count"},
}

// runEnv is what a workload gets from the command line.
type runEnv struct {
	seed    uint64
	seconds float64
	traced  bool
	// t0 is the process start, the time base of every span.
	t0 time.Time
	// log receives progress and diagnostics (standard error).
	log io.Writer
}

// outcome is what a workload returns.
type outcome struct {
	attempted int
	failed    int
	problems  []string
	notes     []string // diagnostics for standard error
	metrics   map[string]float64
	// counters are the deterministic work counters and the unit they are
	// counted per; counterCheck says how they were checked inside the run.
	counters     map[string]uint64
	counterUnit  string
	counterCheck string
	spans        []span
}

func newOutcome() *outcome {
	return &outcome{metrics: make(map[string]float64), counters: make(map[string]uint64)}
}

// maxProblems bounds how many failure messages a run keeps.
const maxProblems = 20

// fail records one failed operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < maxProblems {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// check records one oracle: a nil error passes.
func (o *outcome) check(err error) {
	o.attempted++
	if err != nil {
		o.fail("%v", err)
	}
}

// setE2E fills the end-to-end metrics shared by every workload from their
// samples (latencies, reports and the tail in seconds).
func (o *outcome) setE2E(setups, latencies []float64, tail float64, throughput, reports, heapsMB []float64) {
	o.metrics["setup_s"] = median(setups)
	o.metrics["latency_ms"] = 1000 * median(latencies)
	o.metrics["tail_ms"] = 1000 * tail
	o.metrics["throughput_per_s"] = median(throughput)
	o.metrics["report_ms"] = 1000 * median(reports)
	o.metrics["resident_mb"] = median(heapsMB)
}

// tailOf is the highest percentile of xs with at least ten samples beyond
// it, noted with the sample count and the samples' spread.
func (o *outcome) tailOf(what string, xs []float64) float64 {
	v, pct, ok := tail(xs)
	o.notes = append(o.notes, fmt.Sprintf("%s: %d samples, interquartile spread %.3f of the median, tail at p%.1f (ten beyond: %v)",
		what, len(xs), spread(xs), pct, ok))
	return v
}

// workloadFuncs maps each workload name to its runner.
var workloadFuncs = map[string]func(*runEnv) (*outcome, error){
	"fig6":        func(e *runEnv) (*outcome, error) { return runFig6(e, defaultFig6Params()) },
	"long-stream": func(e *runEnv) (*outcome, error) { return runLongStream(e, defaultStreamParams()) },
	"serve-mixed": func(e *runEnv) (*outcome, error) { return runServeMixed(e, defaultServeParams()) },
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult selects the metrics of the run's mode, in declaration order,
// and rejects a missing or non-finite one: either is a benchmark bug.
func buildResult(o *outcome, traced bool) (result, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operation was attempted")
	}
	return res, nil
}

// sortedKeys returns a map's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: fig6, long-stream or serve-mixed")
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 20, "how long to measure")
	traceFlag := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloadFuncs[*workload]
	if !ok || (*traceFlag != 0 && *traceFlag != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "benchmark: need --workload fig6|long-stream|serve-mixed, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	env := &runEnv{seed: *seed, seconds: *seconds, traced: *traceFlag == 1, t0: time.Now(), log: stderr}
	env.logf("benchmark: workload=%s seed=%d seconds=%g trace=%d gomaxprocs=%d nproc=%d go=%s",
		*workload, *seed, *seconds, *traceFlag, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())

	o, err := fn(env)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", *workload, err)
		return 1
	}
	for _, n := range o.notes {
		env.logf("benchmark: %s", n)
	}
	for _, p := range o.problems {
		fmt.Fprintf(stderr, "benchmark: FAIL %s\n", p)
	}
	if env.traced {
		path, err := writeSpans(*out, *workload, *seed, o.spans)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		env.logf("benchmark: %d spans written to %s", len(o.spans), path)
	}
	res, err := buildResult(o, env.traced)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", *workload, err)
		return 1
	}
	counters, err := json.Marshal(struct {
		Workload string            `json:"workload"`
		Per      string            `json:"per"`
		Check    string            `json:"check"`
		Counters map[string]uint64 `json:"counters"`
	}{*workload, o.counterUnit, o.counterCheck, o.counters})
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: encoding counters: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", counters, line)
	if !res.Correct {
		return 1
	}
	return 0
}

// logf writes one diagnostic line.
func (e *runEnv) logf(format string, args ...any) {
	fmt.Fprintf(e.log, format+"\n", args...)
}

// elapsed reports whether the measurement window that began at start is
// over.
func (e *runEnv) elapsed(start time.Time) bool {
	return time.Since(start).Seconds() >= e.seconds
}
