package core_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"drgpum/internal/core"
	"drgpum/internal/gpu"
	"drgpum/internal/workloads"
)

// profiledJSON profiles the named workload from scratch and returns the
// serialized report.
func profiledJSON(t *testing.T, name string, sequential bool) []byte {
	t.Helper()
	prof := collectedProfiler(t, name, sequential)
	out, err := json.Marshal(prof.Finish())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestAnalysisDeterminism pins DESIGN.md §4.1: profiling the same workload
// must yield byte-identical JSON reports across runs, and the concurrent
// analysis pipeline must produce exactly the bytes the sequential one does.
// Any ordering leak from the parallel stages (goroutine completion order,
// map iteration, non-deterministic merge) shows up here as a diff.
func TestAnalysisDeterminism(t *testing.T) {
	for _, name := range []string{"simplemulticopy", "rodinia/huffman", "polybench/bicg"} {
		t.Run(name, func(t *testing.T) {
			first := profiledJSON(t, name, false)
			again := profiledJSON(t, name, false)
			if !bytes.Equal(first, again) {
				t.Errorf("two parallel-analysis runs differ (%d vs %d bytes)", len(first), len(again))
			}
			seq := profiledJSON(t, name, true)
			if !bytes.Equal(first, seq) {
				t.Errorf("parallel and sequential analysis differ (%d vs %d bytes)", len(first), len(seq))
			}
		})
	}
}

// suiteReport runs one workload variant from scratch under the intra-object
// configuration, either through the default two-step concurrent analysis
// pipeline or strictly sequentially (Config.SequentialAnalysis).
func suiteReport(tb testing.TB, name string, v workloads.Variant, sequential, stream bool) *core.Report {
	tb.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		tb.Fatalf("unknown workload %s", name)
	}
	dev := gpu.NewDevice(gpu.SpecRTX3090())
	cfg := core.IntraObjectConfig()
	cfg.KernelWhitelist = w.IntraKernels
	cfg.SequentialAnalysis = sequential
	if stream {
		cfg.Streaming = core.StreamingConfig{Enabled: true, WindowKernels: streamWindow}
	}
	prof := core.Attach(dev, cfg)
	if err := w.Run(dev, prof, v); err != nil {
		tb.Fatal(err)
	}
	return prof.Finish()
}

// exportBytes serializes a report through one registered exporter.
func exportBytes(tb testing.TB, rep *core.Report, f core.Format) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := rep.Export(&buf, f); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestPipelinedDeterminism extends TestAnalysisDeterminism to the whole
// workload suite under intra-object profiling: for every workload, both
// variants, offline and streaming, a run analyzed by the concurrent
// pipeline must serialize byte-identically to the strictly sequential one
// in every format — report JSON, verbose render, GUI export, and (offline)
// the saved profile. Concurrency is an execution detail, never an output.
func TestPipelinedDeterminism(t *testing.T) {
	for _, name := range workloads.Names() {
		for _, v := range []workloads.Variant{workloads.VariantNaive, workloads.VariantOptimized} {
			for _, stream := range []bool{false, true} {
				mode := "offline"
				if stream {
					mode = "streaming"
				}
				t.Run(fmt.Sprintf("%s/%s/%s", name, v, mode), func(t *testing.T) {
					// One call site for both runs: allocation call paths
					// embed source lines, so distinct call sites would
					// differ trivially.
					var reps [2]*core.Report
					for i, sequential := range []bool{true, false} {
						reps[i] = suiteReport(t, name, v, sequential, stream)
					}
					seq, par := reps[0], reps[1]
					seqJS, seqTxt := reportBytes(t, seq)
					parJS, parTxt := reportBytes(t, par)
					if !bytes.Equal(seqJS, parJS) {
						t.Errorf("concurrent JSON differs from sequential (%d vs %d bytes)", len(parJS), len(seqJS))
					}
					if !bytes.Equal(seqTxt, parTxt) {
						t.Errorf("concurrent render differs from sequential (%d vs %d bytes)", len(parTxt), len(seqTxt))
					}
					if !bytes.Equal(exportBytes(t, seq, core.FormatGUI), exportBytes(t, par, core.FormatGUI)) {
						t.Error("concurrent GUI export differs from sequential")
					}
					if !stream {
						if !bytes.Equal(exportBytes(t, seq, core.FormatProfile), exportBytes(t, par, core.FormatProfile)) {
							t.Error("concurrent saved profile differs from sequential")
						}
					}
				})
			}
		}
	}
}
