package core_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"drgpum/internal/core"
	"drgpum/internal/workloads"
)

// pinOneProc runs the rest of the test at GOMAXPROCS=1, the in-order
// reference schedule: the analysis stages interleave on one P and the
// marginal-savings scan runs in order on the calling goroutine. t.Cleanup
// restores the previous setting; no test here calls t.Parallel.
func pinOneProc(tb testing.TB) {
	prev := runtime.GOMAXPROCS(1)
	tb.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// profiledJSON profiles the named workload from scratch and returns the
// serialized report.
func profiledJSON(t *testing.T, name string) []byte {
	t.Helper()
	prof := collectedProfiler(t, name)
	out, err := json.Marshal(prof.Finish())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestAnalysisDeterminism pins DESIGN.md §4.1: profiling the same workload
// must yield byte-identical JSON reports across runs, and the concurrent
// analysis pipeline must produce exactly the bytes it does at GOMAXPROCS=1.
// Any ordering leak from the parallel stages (goroutine completion order,
// map iteration, non-deterministic merge) shows up here as a diff.
func TestAnalysisDeterminism(t *testing.T) {
	for _, name := range []string{"simplemulticopy", "rodinia/huffman", "polybench/bicg"} {
		t.Run(name, func(t *testing.T) {
			first := profiledJSON(t, name)
			again := profiledJSON(t, name)
			if !bytes.Equal(first, again) {
				t.Errorf("two parallel-analysis runs differ (%d vs %d bytes)", len(first), len(again))
			}
			pinOneProc(t)
			seq := profiledJSON(t, name)
			if !bytes.Equal(first, seq) {
				t.Errorf("default and GOMAXPROCS=1 analysis differ (%d vs %d bytes)", len(first), len(seq))
			}
		})
	}
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
// pipeline must serialize byte-identically to the same run at GOMAXPROCS=1
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
					// differ trivially. The GOMAXPROCS=1 run goes last:
					// the pin lasts until the subtest ends.
					var reps [2]*core.Report
					for i, oneProc := range []bool{false, true} {
						if oneProc {
							pinOneProc(t)
						}
						reps[i] = profiledReport(t, name, v, stream)
					}
					par, seq := reps[0], reps[1]
					seqJS, seqTxt := reportBytes(t, seq)
					parJS, parTxt := reportBytes(t, par)
					if !bytes.Equal(seqJS, parJS) {
						t.Errorf("concurrent JSON differs from GOMAXPROCS=1 (%d vs %d bytes)", len(parJS), len(seqJS))
					}
					if !bytes.Equal(seqTxt, parTxt) {
						t.Errorf("concurrent render differs from GOMAXPROCS=1 (%d vs %d bytes)", len(parTxt), len(seqTxt))
					}
					if !bytes.Equal(exportBytes(t, seq, core.FormatGUI), exportBytes(t, par, core.FormatGUI)) {
						t.Error("concurrent GUI export differs from GOMAXPROCS=1")
					}
					if !stream {
						if !bytes.Equal(exportBytes(t, seq, core.FormatProfile), exportBytes(t, par, core.FormatProfile)) {
							t.Error("concurrent saved profile differs from GOMAXPROCS=1")
						}
					}
				})
			}
		}
	}
}
