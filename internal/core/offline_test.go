package core_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"drgpum/internal/advisor"
	"drgpum/internal/core"
	"drgpum/internal/gpu"
	"drgpum/internal/pattern"
	"drgpum/internal/peak"
	"drgpum/internal/workloads"
)

// analysisBytes serializes the parts of a report the analysis driver
// computes from the trace alone: findings, peaks and the what-if estimate.
func analysisBytes(tb testing.TB, rep *core.Report) []byte {
	tb.Helper()
	out, err := json.Marshal(struct {
		Findings []pattern.Finding
		Peaks    *peak.Analysis
		WhatIf   advisor.Estimate
	}{rep.Findings, rep.Peaks, rep.WhatIf})
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// TestReanalyzedProfileMatchesLive pins the collector/analyzer split (paper
// §4): for every workload and variant, an object-level run with the cost
// model off must yield the same findings, peaks and what-if estimate
// whether the live profiler's Finish analyzes it or AnalyzeProfile
// re-analyzes the profile that run saved.
func TestReanalyzedProfileMatchesLive(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.CostModel.Disabled = true
	var findings int
	for _, name := range workloads.Names() {
		for _, v := range []workloads.Variant{workloads.VariantNaive, workloads.VariantOptimized} {
			t.Run(fmt.Sprintf("%s/%s", name, v), func(t *testing.T) {
				w, _ := workloads.ByName(name)
				dev := gpu.NewDevice(gpu.SpecRTX3090())
				prof := core.Attach(dev, cfg)
				if err := w.Run(dev, prof, v); err != nil {
					t.Fatal(err)
				}
				live := prof.Finish()
				var saved bytes.Buffer
				if err := live.SaveProfile(&saved); err != nil {
					t.Fatal(err)
				}
				again, err := core.AnalyzeProfile(&saved, cfg)
				if err != nil {
					t.Fatal(err)
				}
				findings += len(live.Findings)
				want, got := analysisBytes(t, live), analysisBytes(t, again)
				if !bytes.Equal(want, got) {
					t.Errorf("re-analyzed profile differs from the live run:\n--- live\n%s\n--- re-analyzed\n%s", want, got)
				}
			})
		}
	}
	if findings == 0 {
		t.Fatal("no live run found anything; the test is vacuous")
	}
}
