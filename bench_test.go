// Benchmark harness regenerating every table and figure of the paper's
// evaluation, plus ablations for the §5.5 design choices. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark prints the regenerated rows once (on the first iteration)
// and reports paper-relevant quantities as custom metrics, so a single
// bench run reproduces the evaluation end to end.
package drgpum_test

import (
	"fmt"
	"io"
	"os"
	"sync"
	"testing"

	"drgpum/internal/core"
	"drgpum/internal/engine"
	"drgpum/internal/gpu"
	"drgpum/internal/gui"
	"drgpum/internal/overhead"
	"drgpum/internal/tables"
	"drgpum/internal/workloads"
)

// freshEngine gives every benchmark iteration its own run engine: the
// process-wide default engine memoizes profiles, which would turn all
// iterations after the first into cache lookups and make the numbers
// meaningless.
func freshEngine() *engine.Engine { return engine.New(engine.Config{}) }

// printOnce guards the one-time row dumps so repeated bench iterations do
// not flood the output.
var printOnce sync.Map

func oncePerBench(b *testing.B, f func(w io.Writer)) {
	if _, loaded := printOnce.LoadOrStore(b.Name(), true); !loaded {
		fmt.Fprintf(os.Stdout, "\n===== %s =====\n", b.Name())
		f(os.Stdout)
	}
}

// BenchmarkTable1PatternMatrix regenerates the paper's Table 1: the
// pattern matrix over all twelve workloads at intra-object granularity.
func BenchmarkTable1PatternMatrix(b *testing.B) {
	var rows []tables.Table1Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = tables.Table1With(freshEngine(), gpu.SpecRTX3090())
		if err != nil {
			b.Fatal(err)
		}
	}
	var checks int
	for _, r := range rows {
		checks += len(r.Patterns)
	}
	b.ReportMetric(float64(checks), "pattern-cells")
	oncePerBench(b, func(w io.Writer) { tables.RenderTable1(w, rows) })
}

// BenchmarkTable4PeakReduction regenerates Table 4: peak reductions and
// speedups from the paper's fixes.
func BenchmarkTable4PeakReduction(b *testing.B) {
	var rows []tables.Table4Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = tables.Table4With(freshEngine())
		if err != nil {
			b.Fatal(err)
		}
	}
	var sum float64
	var n int
	for _, r := range rows {
		if !r.Perf {
			sum += r.ReductionPct
			n++
		}
	}
	b.ReportMetric(sum/float64(n), "mean-reduction-%")
	oncePerBench(b, func(w io.Writer) { tables.RenderTable4(w, rows) })
}

// BenchmarkTable5Comparison regenerates Table 5: DrGPUM vs the
// ValueExpert- and Compute-Sanitizer-style baselines.
func BenchmarkTable5Comparison(b *testing.B) {
	var rows []tables.Table5Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = tables.Table5With(freshEngine(), gpu.SpecRTX3090())
		if err != nil {
			b.Fatal(err)
		}
	}
	var drgpumYes int
	for _, r := range rows {
		if r.DrGPUM {
			drgpumYes++
		}
	}
	b.ReportMetric(float64(drgpumYes), "drgpum-patterns")
	oncePerBench(b, func(w io.Writer) { tables.RenderTable5(w, rows) })
}

// BenchmarkFigure6Overhead regenerates Figure 6: profiling overhead per
// workload for both analyses on both device specs (median of the bench's
// own repetitions via overhead.Measure).
func BenchmarkFigure6Overhead(b *testing.B) {
	var rows []overhead.Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = overhead.MeasureWith(
			freshEngine(),
			[]gpu.DeviceSpec{gpu.SpecRTX3090(), gpu.SpecA100()},
			overhead.Options{Repeats: 1, SamplingPeriod: 100},
		)
		if err != nil {
			b.Fatal(err)
		}
	}
	s := overhead.Summarize(rows)
	b.ReportMetric(s[0].ObjectGeomean, "objlvl-geomean-x")
	b.ReportMetric(s[0].IntraGeomean, "intra-geomean-x")
	oncePerBench(b, func(w io.Writer) { overhead.Render(w, rows) })
}

// BenchmarkEngineTable1 is the run engine's parallel-vs-sequential pair:
// the same Table 1 sweep through the worker pool and through a one-worker
// pool (the in-order reference scheduling), each iteration on a fresh engine so
// the cache does not collapse iterations. On a multi-core host the
// parallel side approaches the longest single profile; at GOMAXPROCS=1
// the two are at parity (the fan-out only interleaves).
func BenchmarkEngineTable1(b *testing.B) {
	run := func(b *testing.B, cfg engine.Config) {
		for i := 0; i < b.N; i++ {
			if _, err := tables.Table1With(engine.New(cfg), gpu.SpecRTX3090()); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("parallel", func(b *testing.B) { run(b, engine.Config{}) })
	b.Run("sequential", func(b *testing.B) { run(b, engine.Config{Workers: 1}) })
}

// BenchmarkEngineTable1ThenTable5 measures the cross-driver memoization
// win: one iteration regenerates Table 1 and then Table 5 on a shared
// engine, the way cmd/drgpum-tables and cmd/drgpum-compare share the
// default engine within a process. Table 5's twelve DrGPUM profiles are
// exactly Table 1's tuples, so they come from cache and only the
// baseline-tool runs are fresh work — compare against the sum of
// BenchmarkTable1PatternMatrix and BenchmarkTable5Comparison, which
// start cold. The custom metrics surface engine.Stats per iteration.
func BenchmarkEngineTable1ThenTable5(b *testing.B) {
	var stats engine.Stats
	for i := 0; i < b.N; i++ {
		e := freshEngine()
		if _, err := tables.Table1With(e, gpu.SpecRTX3090()); err != nil {
			b.Fatal(err)
		}
		if _, err := tables.Table5With(e, gpu.SpecRTX3090()); err != nil {
			b.Fatal(err)
		}
		stats = e.Stats()
	}
	b.ReportMetric(float64(stats.Hits+stats.Dedups), "cache-hits/op")
	b.ReportMetric(float64(stats.Misses), "fresh-runs/op")
}

// BenchmarkFigure7GUIExport regenerates Figure 7: the Perfetto trace of
// the SimpleMultiCopy profile (the artifact's liveness.json).
func BenchmarkFigure7GUIExport(b *testing.B) {
	w, _ := workloads.ByName("simplemulticopy")
	rep, err := tables.Profile(w, gpu.SpecRTX3090(), workloads.VariantNaive, gpu.PatchFull, 1)
	if err != nil {
		b.Fatal(err)
	}
	var bytesOut int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cw := &countWriter{}
		if err := gui.Export(rep, cw); err != nil {
			b.Fatal(err)
		}
		bytesOut = cw.n
	}
	b.ReportMetric(float64(bytesOut), "trace-bytes")
	b.ReportMetric(float64(len(rep.Findings)), "findings")
}

type countWriter struct{ n int }

func (c *countWriter) Write(p []byte) (int, error) { c.n += len(p); return len(p), nil }

// benchProfileWorkload profiles one workload at the given level per
// iteration.
func benchProfileWorkload(b *testing.B, name string, level gpu.PatchLevel, mode gpu.ObjectIDMode) {
	w, ok := workloads.ByName(name)
	if !ok {
		b.Fatalf("unknown workload %s", name)
	}
	for i := 0; i < b.N; i++ {
		dev := gpu.NewDevice(gpu.SpecRTX3090())
		cfg := core.DefaultConfig()
		cfg.Level = level
		cfg.ObjectIDMode = mode
		if level == gpu.PatchFull {
			cfg.KernelWhitelist = w.IntraKernels
			cfg.SamplingPeriod = 100
		}
		prof := core.Attach(dev, cfg)
		if err := w.Run(dev, prof, workloads.VariantNaive); err != nil {
			b.Fatal(err)
		}
		rep := prof.Finish()
		b.ReportMetric(float64(len(rep.Findings)), "findings")
	}
}

// BenchmarkAblationHitFlags quantifies the paper's §5.5 GPU-offloaded
// object identification (Figure 5) against the naive host-trace baseline
// on the access-heaviest DL workload — the design choice the paper credits
// with reducing Darknet's object-level analysis from 1.5 hours to 12
// seconds.
func BenchmarkAblationHitFlags(b *testing.B) {
	b.Run("hit-flags", func(b *testing.B) {
		benchProfileWorkload(b, "darknet", gpu.PatchAPI, gpu.ObjectIDHitFlags)
	})
	b.Run("host-trace", func(b *testing.B) {
		benchProfileWorkload(b, "darknet", gpu.PatchAPI, gpu.ObjectIDHostTrace)
	})
}

// BenchmarkAblationAccessMapMode compares the adaptive intra-object
// map-update modes (§5.5): device-resident maps vs host-side updates.
func BenchmarkAblationAccessMapMode(b *testing.B) {
	run := func(b *testing.B, capacity uint64) {
		w, _ := workloads.ByName("polybench/gramschmidt")
		for i := 0; i < b.N; i++ {
			dev := gpu.NewDevice(gpu.SpecRTX3090())
			cfg := core.IntraObjectConfig()
			cfg.KernelWhitelist = w.IntraKernels
			prof := core.Attach(dev, cfg)
			if capacity == 1 {
				// Force the host path through the recorder's budget rule by
				// shrinking the believed capacity.
				prof = forceHostMaps(dev, cfg)
			}
			if err := w.Run(dev, prof, workloads.VariantNaive); err != nil {
				b.Fatal(err)
			}
			rep := prof.Finish()
			if capacity == 1 && rep.ModeStats.HostKernels == 0 {
				b.Fatal("host mode not engaged")
			}
		}
	}
	b.Run("device-maps", func(b *testing.B) { run(b, 0) })
	b.Run("host-maps", func(b *testing.B) { run(b, 1) })
}

// forceHostMaps attaches a profiler whose recorder believes the device has
// no room for access maps.
func forceHostMaps(dev *gpu.Device, cfg core.Config) *core.Profiler {
	prof := core.Attach(dev, cfg)
	prof.ForceHostAccessMaps()
	return prof
}

// BenchmarkAblationKernelSampling measures the §5.5 kernel-sampling knob:
// intra-object analysis of GramSchmidt's 64 kernel3 launches at sampling
// periods 1 (all) and 100 (the Figure 6 setting).
func BenchmarkAblationKernelSampling(b *testing.B) {
	run := func(b *testing.B, period int) {
		w, _ := workloads.ByName("polybench/gramschmidt")
		for i := 0; i < b.N; i++ {
			dev := gpu.NewDevice(gpu.SpecRTX3090())
			cfg := core.IntraObjectConfig()
			cfg.KernelWhitelist = w.IntraKernels
			cfg.SamplingPeriod = period
			prof := core.Attach(dev, cfg)
			if err := w.Run(dev, prof, workloads.VariantNaive); err != nil {
				b.Fatal(err)
			}
			_ = prof.Finish()
		}
	}
	b.Run("period-1", func(b *testing.B) { run(b, 1) })
	b.Run("period-100", func(b *testing.B) { run(b, 100) })
}

// BenchmarkProfilerObjectLevel and BenchmarkProfilerIntraObject are the
// per-workload microbenchmarks behind Figure 6, exposed individually so
// regressions localize.
func BenchmarkProfilerObjectLevel(b *testing.B) {
	for _, name := range []string{"rodinia/huffman", "polybench/bicg", "minimdock"} {
		b.Run(name, func(b *testing.B) {
			benchProfileWorkload(b, name, gpu.PatchAPI, gpu.ObjectIDHitFlags)
		})
	}
}

func BenchmarkProfilerIntraObject(b *testing.B) {
	for _, name := range []string{"rodinia/huffman", "polybench/bicg", "minimdock"} {
		b.Run(name, func(b *testing.B) {
			benchProfileWorkload(b, name, gpu.PatchFull, gpu.ObjectIDHitFlags)
		})
	}
}

// BenchmarkNativeBaseline is the denominator of Figure 6: the workloads
// with no instrumentation at all.
func BenchmarkNativeBaseline(b *testing.B) {
	for _, name := range []string{"rodinia/huffman", "polybench/bicg", "minimdock"} {
		b.Run(name, func(b *testing.B) {
			w, _ := workloads.ByName(name)
			for i := 0; i < b.N; i++ {
				dev := gpu.NewDevice(gpu.SpecRTX3090())
				if err := w.Run(dev, workloads.NopHost(), workloads.VariantNaive); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
