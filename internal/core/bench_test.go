package core_test

import (
	"encoding/json"
	"testing"

	"drgpum/internal/core"
	"drgpum/internal/gpu"
	"drgpum/internal/workloads"
)

// collectedProfiler runs a workload once at intra-object granularity and
// returns the still-attached profiler, so Snapshot() re-runs the offline
// analysis pipeline over a fixed collection state.
func collectedProfiler(tb testing.TB, name string) *core.Profiler {
	tb.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		tb.Fatalf("unknown workload %s", name)
	}
	dev := gpu.NewDevice(gpu.SpecRTX3090())
	cfg := core.IntraObjectConfig()
	cfg.KernelWhitelist = w.IntraKernels
	prof := core.Attach(dev, cfg)
	if err := w.Run(dev, prof, workloads.VariantNaive); err != nil {
		tb.Fatal(err)
	}
	return prof
}

// BenchmarkAnalyzePipeline measures the offline analysis alone — dependency
// graph, peak mining, object-level and intra-object detection, marginal
// savings and suggestion rendering — decoupled from collection.
func BenchmarkAnalyzePipeline(b *testing.B) {
	for _, name := range []string{"simplemulticopy", "rodinia/huffman", "minimdock"} {
		b.Run(name+"/parallel", func(b *testing.B) {
			prof := collectedProfiler(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			var n int
			for i := 0; i < b.N; i++ {
				n = len(prof.Snapshot().Findings)
			}
			b.ReportMetric(float64(n), "findings")
		})
		b.Run(name+"/sequential", func(b *testing.B) {
			pinOneProc(b)
			prof := collectedProfiler(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			var n int
			for i := 0; i < b.N; i++ {
				n = len(prof.Snapshot().Findings)
			}
			b.ReportMetric(float64(n), "findings")
		})
	}
}

// BenchmarkReportJSON measures report serialization (the drgpum -json path).
func BenchmarkReportJSON(b *testing.B) {
	prof := collectedProfiler(b, "simplemulticopy")
	rep := prof.Finish()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := json.Marshal(rep); err != nil {
			b.Fatal(err)
		}
	}
}
