// Command drgpum-bench measures the streaming windowed-analysis pipeline
// against the offline one on a training-loop-shaped long run (persistent
// weights, a freed-per-epoch activation, one instrumented kernel per epoch
// — the dnnpool/multistream shape) and writes the numbers as JSON.
//
// The emitted metrics are the streaming acceptance set: ingestion cost per
// GPU API, mid-run Snapshot cost for both pipelines, and the collector's
// resident heap footprint after collection for both pipelines. CI runs
// this as the bench-smoke step's artifact (BENCH_streaming.json); the
// EXPERIMENTS.md streaming appendix records representative values.
//
// With -costmodel it instead measures what the memory-hierarchy cost
// model adds to an end-to-end profile: for each workload it runs the naive
// variant with the model enabled (the default) and disabled, and reports
// the median wall clocks plus the relative overhead (BENCH_costmodel.json,
// the bench-smoke step's second artifact).
//
// Usage:
//
//	drgpum-bench [-out BENCH_streaming.json] [-epochs N] [-window N]
//	drgpum-bench -costmodel [-out BENCH_costmodel.json] [-runs N] [-workloads a,b,...]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"drgpum/internal/core"
	"drgpum/internal/gpu"
	"drgpum/internal/workloads"
)

// activationFloats sizes the per-epoch activation tensor (float32 elements).
const activationFloats = 16 * 1024

// Result is the JSON document drgpum-bench emits.
type Result struct {
	// WindowKernels is the streaming kernel-epoch length used.
	WindowKernels int `json:"window_kernels"`
	// Epochs is the training-loop length; APIs counts the GPU APIs one run
	// issues.
	Epochs int `json:"epochs"`
	APIs   int `json:"apis"`
	// IngestNsPerOp is the streaming run's collection wall time divided by
	// its API count: what arrival-time analysis costs per GPU API.
	IngestNsPerOp int64 `json:"ingest_ns_per_op"`
	// IngestOfflineNsPerOp is the same for the offline pipeline (collection
	// only; its analysis bill comes due at Snapshot/Finish instead).
	IngestOfflineNsPerOp int64 `json:"ingest_offline_ns_per_op"`
	// SnapshotNsPerOp and SnapshotOfflineNsPerOp time a mid-run Snapshot
	// over the collected state under each pipeline.
	SnapshotNsPerOp        int64 `json:"snapshot_ns_per_op"`
	SnapshotOfflineNsPerOp int64 `json:"snapshot_offline_ns_per_op"`
	// ResidentBytes and ResidentOfflineBytes are the live-heap growth over
	// the pre-attach baseline after collection (GC'd, profiler attached).
	ResidentBytes        uint64 `json:"resident_bytes"`
	ResidentOfflineBytes uint64 `json:"resident_offline_bytes"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("drgpum-bench: ")
	var (
		out       = flag.String("out", "", "output JSON path (- for stdout; default BENCH_streaming.json, or BENCH_costmodel.json with -costmodel)")
		epochs    = flag.Int("epochs", 64, "training-loop epochs (one kernel each)")
		window    = flag.Int("window", 8, "streaming kernel-epoch length")
		costmodel = flag.Bool("costmodel", false, "benchmark cost-model-on vs cost-model-off end-to-end profiling instead of streaming")
		runs      = flag.Int("runs", 5, "with -costmodel: runs per workload per mode (the median is reported)")
		names     = flag.String("workloads", "minimdock,polybench/2mm,rodinia/huffman,simplemulticopy", "with -costmodel: comma-separated workloads")
	)
	flag.Parse()

	if *costmodel {
		if *out == "" {
			*out = "BENCH_costmodel.json"
		}
		writeJSON(*out, benchCostModel(strings.Split(*names, ","), *runs))
		return
	}
	if *out == "" {
		*out = "BENCH_streaming.json"
	}

	res := Result{WindowKernels: *window, Epochs: *epochs}
	for _, stream := range []bool{true, false} {
		ingest, snapshot, resident, apis := measure(*epochs, *window, stream)
		res.APIs = apis
		if stream {
			res.IngestNsPerOp = ingest
			res.SnapshotNsPerOp = snapshot
			res.ResidentBytes = resident
		} else {
			res.IngestOfflineNsPerOp = ingest
			res.SnapshotOfflineNsPerOp = snapshot
			res.ResidentOfflineBytes = resident
		}
	}

	writeJSON(*out, res)
}

// writeJSON marshals v indented and writes it to path ("-" for stdout).
func writeJSON(path string, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if path == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

// CostModelResult is the JSON document the -costmodel mode emits.
type CostModelResult struct {
	// GOMAXPROCS records the parallelism the numbers were taken under;
	// Runs is the per-mode sample count behind each median.
	GOMAXPROCS int                 `json:"gomaxprocs"`
	Runs       int                 `json:"runs"`
	Workloads  []WorkloadCostModel `json:"workloads"`
}

// WorkloadCostModel is one workload's cost-on vs cost-off medians.
type WorkloadCostModel struct {
	Name string `json:"name"`
	// CostOffNs and CostOnNs are median end-to-end wall times (attach
	// through Finish) with the cost model disabled and enabled.
	CostOffNs int64 `json:"cost_off_ns"`
	CostOnNs  int64 `json:"cost_on_ns"`
	// OverheadPct is (CostOnNs - CostOffNs) / CostOffNs * 100 — what the
	// transaction/cache/TLB accounting adds to the profile. Negative values
	// mean the difference drowned in run-to-run noise.
	OverheadPct float64 `json:"overhead_pct"`
	// ModeledCycles is the cost-on run's total modeled memory cycles across
	// all objects — a determinism fingerprint for the baseline (the same
	// toolchain must reproduce it exactly).
	ModeledCycles uint64 `json:"modeled_cycles"`
}

// benchCostModel measures each workload end-to-end with the cost model
// enabled (the default configuration) and disabled.
func benchCostModel(names []string, runs int) CostModelResult {
	res := CostModelResult{GOMAXPROCS: runtime.GOMAXPROCS(0), Runs: runs}
	for _, name := range names {
		name = strings.TrimSpace(name)
		w, ok := workloads.Lookup(name)
		if !ok {
			log.Fatalf("unknown workload %q", name)
		}
		wc := WorkloadCostModel{Name: name}
		wc.CostOffNs, _ = medianCostRun(w, false, runs)
		wc.CostOnNs, wc.ModeledCycles = medianCostRun(w, true, runs)
		if wc.CostOffNs > 0 {
			wc.OverheadPct = float64(wc.CostOnNs-wc.CostOffNs) / float64(wc.CostOffNs) * 100
		}
		res.Workloads = append(res.Workloads, wc)
	}
	return res
}

// medianCostRun profiles one workload `runs` times with the cost model on
// or off and returns the median wall time. Each run builds a fresh device
// (the clock starts after construction, matching the overhead methodology)
// and includes Finish's analysis — the end-to-end cost a CLI user waits
// for. It also returns the final run's total modeled cycles (zero with the
// model off).
func medianCostRun(w *workloads.Workload, costOn bool, runs int) (int64, uint64) {
	walls := make([]int64, 0, runs)
	var cycles uint64
	for i := 0; i < runs; i++ {
		dev := gpu.NewDevice(gpu.SpecRTX3090())
		cfg := core.IntraObjectConfig()
		cfg.KernelWhitelist = w.IntraKernels
		cfg.CostModel.Disabled = !costOn
		start := time.Now()
		prof := core.Attach(dev, cfg)
		if err := w.Run(dev, prof, workloads.VariantNaive); err != nil {
			log.Fatalf("%s: %v", w.Name, err)
		}
		rep := prof.Finish()
		walls = append(walls, time.Since(start).Nanoseconds())
		cycles = 0
		for _, o := range rep.Trace.Objects {
			cycles += o.Cost.ModeledCycles
		}
	}
	sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
	return walls[len(walls)/2], cycles
}

// measure runs the training loop under one pipeline and returns ingest
// ns/op, snapshot ns/op, resident bytes, and the API count.
func measure(epochs, window int, stream bool) (ingest, snapshot int64, resident uint64, apis int) {
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	dev := gpu.NewDevice(gpu.SpecRTX3090())
	cfg := core.IntraObjectConfig()
	if stream {
		cfg.Streaming = core.StreamingConfig{Enabled: true, WindowKernels: window}
	}
	prof := core.Attach(dev, cfg)

	start := time.Now()
	trainingLoop(dev, prof, epochs)
	collectWall := time.Since(start)
	apis = len(prof.Collector().Trace().APIs)
	ingest = collectWall.Nanoseconds() / int64(apis)

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > before.HeapAlloc {
		resident = after.HeapAlloc - before.HeapAlloc
	}

	const snaps = 10
	start = time.Now()
	for i := 0; i < snaps; i++ {
		prof.Snapshot()
	}
	snapshot = time.Since(start).Nanoseconds() / snaps
	prof.Finish()
	return ingest, snapshot, resident, apis
}

// trainingLoop is the benchmark workload: persistent weights plus a
// freed-per-epoch activation, touched stride-8 by one kernel per epoch.
func trainingLoop(dev *gpu.Device, prof *core.Profiler, epochs int) {
	weights, err := dev.Malloc(4 * activationFloats)
	if err != nil {
		log.Fatal(err)
	}
	prof.Annotate(weights, "weights", 4)
	for e := 0; e < epochs; e++ {
		act, err := dev.Malloc(4 * activationFloats)
		if err != nil {
			log.Fatal(err)
		}
		prof.Annotate(act, fmt.Sprintf("activation_%03d", e), 4)
		if err := dev.Memset(act, 0, 4*activationFloats, nil); err != nil {
			log.Fatal(err)
		}
		err = dev.LaunchFunc(nil, "train_step", gpu.Dim1(1), gpu.Dim1(64), func(ctx *gpu.ExecContext) {
			for i := 0; i < activationFloats; i += 8 {
				w := ctx.LoadF32(weights + gpu.DevicePtr(4*i))
				ctx.StoreF32(act+gpu.DevicePtr(4*i), w+float32(e))
				ctx.StoreF32(weights+gpu.DevicePtr(4*i), w+1)
			}
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := dev.Free(act); err != nil {
			log.Fatal(err)
		}
	}
	if err := dev.Free(weights); err != nil {
		log.Fatal(err)
	}
}
