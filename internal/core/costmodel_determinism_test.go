package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"drgpum/internal/core"
	"drgpum/internal/gpu"
	"drgpum/internal/pattern"
	"drgpum/internal/workloads"
)

// costMode names one execution mode of the cost determinism matrix.
type costMode struct {
	name      string
	oneProc   bool // run at GOMAXPROCS=1
	streaming bool
}

// costModes is the full mode matrix: the default concurrent offline
// analysis, streaming windowed retirement, and the offline analysis at
// GOMAXPROCS=1. That one goes last because its pin lasts until the subtest
// ends.
// Cost accounting rides the synchronous kernel execution path in every one
// of them, so modeled cycles must be bit-equal across the matrix.
var costModes = []costMode{
	{name: "parallel"},
	{name: "streaming", streaming: true},
	{name: "sequential", oneProc: true},
}

// costReport profiles one workload variant under one mode with the cost
// model at its default (enabled) configuration.
func costReport(tb testing.TB, w *workloads.Workload, v workloads.Variant, m costMode) *core.Report {
	tb.Helper()
	if m.oneProc {
		pinOneProc(tb)
	}
	dev := gpu.NewDevice(gpu.SpecRTX3090())
	cfg := core.IntraObjectConfig()
	cfg.KernelWhitelist = w.IntraKernels
	if m.streaming {
		cfg.Streaming = core.StreamingConfig{Enabled: true, WindowKernels: streamWindow}
	}
	prof := core.Attach(dev, cfg)
	if err := w.Run(dev, prof, v); err != nil {
		tb.Fatal(err)
	}
	return prof.Finish()
}

// costFingerprint reduces a report to the cost-model facts the matrix
// compares: every finding's (pattern, object, kernel, cycles) tuple in
// advice order plus the per-object modeled-cycle totals.
func costFingerprint(rep *core.Report) string {
	var b bytes.Buffer
	for _, a := range rep.Advice() {
		fmt.Fprintf(&b, "%s %s %s modeled=%d saved=%d\n",
			a.PatternID, a.Object, a.Kernel, a.ModeledCycles, a.CyclesSaved)
	}
	for _, o := range rep.Trace.Objects {
		fmt.Fprintf(&b, "obj %s cycles=%d excess=%d\n",
			o.DisplayName(), o.Cost.ModeledCycles, o.Cost.ExcessTransactions())
	}
	return b.String()
}

// TestCostModelDeterminism pins the cost model's mode independence: the
// modeled cycles attached to objects and findings — and therefore the
// cycles-ranked advice order — must be byte-identical whether the analysis
// ran concurrently, streaming, or at GOMAXPROCS=1. The uncoalesced
// workloads are the interesting rows (their advice exists only because of
// the model); polybench/2mm covers the mixed case where cost cycles rank
// findings other detectors produced.
func TestCostModelDeterminism(t *testing.T) {
	for _, name := range []string{"sdk/matrixtranspose", "sdk/particles", "polybench/2mm"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %s", name)
		}
		for _, v := range []workloads.Variant{workloads.VariantNaive, workloads.VariantOptimized} {
			t.Run(fmt.Sprintf("%s/%s", name, v), func(t *testing.T) {
				// One call site for every mode: allocation call paths embed
				// source lines, so distinct call sites would differ trivially.
				reps := make([]*core.Report, len(costModes))
				for i, m := range costModes {
					reps[i] = costReport(t, w, v, m)
				}
				base := costFingerprint(reps[0])
				if base == "" {
					t.Fatal("empty cost fingerprint; test is vacuous")
				}
				for i := 1; i < len(costModes); i++ {
					if got := costFingerprint(reps[i]); got != base {
						t.Errorf("%s cost fingerprint differs from %s:\n--- %s\n%s\n--- %s\n%s",
							costModes[i].name, costModes[0].name,
							costModes[0].name, base, costModes[i].name, got)
					}
				}
				baseJS, _ := reportBytes(t, reps[0])
				for i := 1; i < len(costModes); i++ {
					js, _ := reportBytes(t, reps[i])
					if !bytes.Equal(baseJS, js) {
						t.Errorf("%s report JSON differs from %s (%d vs %d bytes)",
							costModes[i].name, costModes[0].name, len(js), len(baseJS))
					}
				}
				if v == workloads.VariantNaive {
					// The naive variants exist to exhibit uncoalesced access:
					// the advice must carry it with nonzero modeled cycles.
					found := false
					for _, a := range reps[0].Advice() {
						if a.PatternID == pattern.UncoalescedAccess.ID() && name != "polybench/2mm" {
							found = true
							if a.CyclesSaved == 0 || a.ModeledCycles == 0 {
								t.Errorf("uncoalesced advice with zero cycles: %+v", a)
							}
						}
					}
					if !found && name != "polybench/2mm" {
						t.Error("naive variant produced no uncoalesced-access advice")
					}
				}
			})
		}
	}
}
