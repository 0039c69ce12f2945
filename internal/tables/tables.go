// Package tables regenerates the paper's evaluation tables from the
// re-implemented workloads:
//
//   - Table 1: which of the ten inefficiency patterns each program exhibits,
//   - Table 4: peak-memory reductions and speedups from applying the
//     paper's fixes, and
//   - Table 5: pattern coverage of DrGPUM vs the ValueExpert- and
//     Compute-Sanitizer-style baselines.
//
// All rows are produced by actually profiling the naive variants and
// actually running the optimized variants — nothing is hard-coded.
package tables

import (
	"fmt"
	"io"
	"strings"

	"drgpum/internal/core"
	"drgpum/internal/engine"
	"drgpum/internal/gpu"
	"drgpum/internal/pattern"
	"drgpum/internal/workloads"
)

// Profile runs one workload variant under the profiler and returns the
// report. level selects object-level (gpu.PatchAPI) or intra-object
// (gpu.PatchFull) analysis; at PatchFull the workload's paper whitelist is
// applied with the given sampling period (<=1 instruments every launch).
//
// Profile goes through the shared run engine, so a tuple already profiled
// anywhere in the process (a table sweep, another Profile call) is served
// from the memoized cache; treat the returned report as read-only.
func Profile(w *workloads.Workload, spec gpu.DeviceSpec, v workloads.Variant, level gpu.PatchLevel, sampling int) (*core.Report, error) {
	return ProfileWith(w, spec, v, level, sampling, ProfileOpts{})
}

// ProfileOpts carries the optional extras of a profiling run, beyond the
// paper's standard configuration.
type ProfileOpts struct {
	// Memcheck attaches the memory-safety checker; the report gains a
	// memcheck section. Kernel whitelist and sampling still apply to
	// intra-object analysis, but memcheck itself observes every kernel.
	Memcheck bool
	// Stream enables the streaming window manager: incremental per-epoch
	// analysis with bounded collector memory and a temporal heat map in the
	// report. Window is the kernel-epoch length (<= 0 selects the core
	// default). The report's findings and summary are byte-identical to an
	// offline run; only the heat map is added.
	Stream bool
	Window int
}

// ProfileWith is Profile with extras.
func ProfileWith(w *workloads.Workload, spec gpu.DeviceSpec, v workloads.Variant, level gpu.PatchLevel, sampling int, opts ProfileOpts) (*core.Report, error) {
	res, err := engine.Default().Run([]engine.RunSpec{{
		Workload:  w,
		Spec:      spec,
		Variant:   v,
		Level:     level,
		Sampling:  sampling,
		Streaming: opts.Stream,
		Window:    opts.Window,
		Opts:      engine.RunOpts{Memcheck: opts.Memcheck},
	}})
	if err != nil {
		return nil, err
	}
	return res[0].Report, nil
}

// RunNative executes a workload variant with no instrumentation and
// returns the simulated device time in cycles. Native runs back the
// paper's speedup columns, so they take the engine's exclusive timed
// lane and are never cached.
func RunNative(w *workloads.Workload, spec gpu.DeviceSpec, v workloads.Variant) (uint64, error) {
	res, err := engine.Default().Run([]engine.RunSpec{{
		Mode:     engine.ModeNative,
		Workload: w,
		Spec:     spec,
		Variant:  v,
		Opts:     engine.RunOpts{Timed: true},
	}})
	if err != nil {
		return 0, err
	}
	return res[0].Cycles, nil
}

// Table1Row is one program's detected pattern set.
type Table1Row struct {
	Program  string
	Patterns []pattern.Pattern
}

// Has reports whether the row contains the pattern.
func (r Table1Row) Has(p pattern.Pattern) bool {
	for _, q := range r.Patterns {
		if q == p {
			return true
		}
	}
	return false
}

// Table1 profiles every workload's naive variant at intra-object
// granularity (full sampling, the paper's per-workload kernel whitelist)
// and returns the pattern matrix. It runs on the shared engine; see
// Table1With.
func Table1(spec gpu.DeviceSpec) ([]Table1Row, error) {
	return Table1With(engine.Default(), spec)
}

// Table1With is Table1 on a caller-supplied engine: the twelve profiles
// fan out over the engine's worker pool and rows come back in Table 1
// order regardless of completion order.
func Table1With(e *engine.Engine, spec gpu.DeviceSpec) ([]Table1Row, error) {
	ws := workloads.All()
	specs := make([]engine.RunSpec, len(ws))
	for i, w := range ws {
		specs[i] = engine.RunSpec{
			Workload: w,
			Spec:     spec,
			Variant:  workloads.VariantNaive,
			Level:    gpu.PatchFull,
			Sampling: 1,
		}
	}
	results, err := e.Run(specs)
	if err != nil {
		return nil, err
	}
	rows := make([]Table1Row, len(ws))
	for i, w := range ws {
		rows[i] = Table1Row{Program: w.Name, Patterns: paperPatterns(results[i].Report.PatternSet())}
	}
	return rows, nil
}

// paperPatterns filters a detected pattern set to the paper's original ten.
// Table 1 replicates the paper's matrix exactly, so repo-extension patterns
// (uncoalesced access) are excluded here; Table 5 uses the unfiltered set.
func paperPatterns(ps []pattern.Pattern) []pattern.Pattern {
	out := ps[:0]
	for _, p := range ps {
		if p.InPaper() {
			out = append(out, p)
		}
	}
	return out
}

// RenderTable1 prints the matrix in the paper's layout (paper patterns
// only — the repo-extension uncoalesced-access column is not in Table 1).
func RenderTable1(w io.Writer, rows []Table1Row) {
	cols := pattern.All()[:pattern.NumPaperPatterns]
	fmt.Fprintf(w, "%-24s", "Program")
	for _, p := range cols {
		fmt.Fprintf(w, " %-5s", p.Abbrev())
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", 24+6*pattern.NumPaperPatterns))
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s", r.Program)
		for _, p := range cols {
			mark := ""
			if r.Has(p) {
				mark = "x"
			}
			fmt.Fprintf(w, " %-5s", mark)
		}
		fmt.Fprintln(w)
	}
}

// perfWorkloads lists the programs whose Table 4 entry is a speedup rather
// than a peak reduction.
var perfWorkloads = map[string]bool{
	"polybench/gramschmidt": true,
	"polybench/bicg":        true,
}

// Table4Row is one program's optimization outcome.
type Table4Row struct {
	Program string
	Domain  string
	// NaivePeak/OptPeak are data-object peak bytes (trace-based, so pool
	// workloads report tensor peaks, matching the paper's PyTorch view).
	NaivePeak uint64
	OptPeak   uint64
	// ReductionPct is the peak-memory reduction.
	ReductionPct float64
	// SpeedupRTX3090/SpeedupA100 are naive/optimized simulated-time ratios
	// on the two device specs (only meaningful for perf workloads).
	SpeedupRTX3090 float64
	SpeedupA100    float64
	// PredictedSpeedup is the cost model's a-priori traffic-speedup bound
	// for the naive variant: total modeled memory cycles over the cycles
	// remaining after every finding's CyclesSaved is recovered. It is
	// derived from the naive profile alone — no optimized run needed —
	// which is exactly the guidance the paper's workflow asks the profiler
	// to give before the user writes the fix. 1.0 means the model sees no
	// recoverable traffic; 0 means the cost model was off.
	PredictedSpeedup float64
	// Perf marks speedup rows (GramSchmidt, BICG).
	Perf bool
}

// Table4 runs every workload in both variants and computes peak reductions
// (on the RTX 3090 spec; the paper notes reductions are identical across
// devices) and speedups (on both specs). It runs on the shared engine;
// see Table4With.
func Table4() ([]Table4Row, error) {
	return Table4With(engine.Default())
}

// Table4With is Table4 on a caller-supplied engine. The 24 peak-reduction
// profiles fan out over the worker pool; the speedup rows measure
// execution time, so their native runs go through the engine's exclusive
// timed lane, one at a time with no concurrent neighbors.
func Table4With(e *engine.Engine) ([]Table4Row, error) {
	specs := []gpu.DeviceSpec{gpu.SpecRTX3090(), gpu.SpecA100()}
	ws := workloads.All()
	variants := []workloads.Variant{workloads.VariantNaive, workloads.VariantOptimized}

	profSpecs := make([]engine.RunSpec, 0, 2*len(ws))
	for _, w := range ws {
		for _, v := range variants {
			profSpecs = append(profSpecs, engine.RunSpec{
				Workload: w,
				Spec:     specs[0],
				Variant:  v,
				Level:    gpu.PatchAPI,
				Sampling: 1,
			})
		}
	}
	var natSpecs []engine.RunSpec
	for _, w := range ws {
		if !perfWorkloads[w.Name] {
			continue
		}
		for _, spec := range specs {
			for _, v := range variants {
				natSpecs = append(natSpecs, engine.RunSpec{
					Mode:     engine.ModeNative,
					Workload: w,
					Spec:     spec,
					Variant:  v,
					Opts:     engine.RunOpts{Timed: true},
				})
			}
		}
	}
	profRes, err := e.Run(profSpecs)
	if err != nil {
		return nil, err
	}
	natRes, err := e.Run(natSpecs)
	if err != nil {
		return nil, err
	}

	var rows []Table4Row
	perfSeen := 0
	for wi, w := range ws {
		naive, opt := profRes[2*wi].Report, profRes[2*wi+1].Report
		row := Table4Row{
			Program:   w.Name,
			Domain:    w.Domain,
			NaivePeak: naive.Peaks.PeakBytes,
			OptPeak:   opt.Peaks.PeakBytes,
			Perf:      perfWorkloads[w.Name],
		}
		if row.NaivePeak > 0 {
			row.ReductionPct = float64(row.NaivePeak-row.OptPeak) / float64(row.NaivePeak) * 100
		}
		row.PredictedSpeedup = predictedSpeedup(naive)
		if row.Perf {
			base := perfSeen * 2 * len(specs)
			for i := range specs {
				tn := natRes[base+2*i].Cycles
				to := natRes[base+2*i+1].Cycles
				speedup := float64(tn) / float64(to)
				if i == 0 {
					row.SpeedupRTX3090 = speedup
				} else {
					row.SpeedupA100 = speedup
				}
			}
			perfSeen++
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// predictedSpeedup computes the cost model's traffic-speedup bound from a
// naive profile: the run's total modeled memory cycles (summed over every
// traced object) against the cycles left after recovering each finding's
// CyclesSaved. Reports profiled without the cost model predict 0.
func predictedSpeedup(rep *core.Report) float64 {
	if rep.CostModel == nil || rep.Trace == nil {
		return 0
	}
	var total, saved uint64
	for _, o := range rep.Trace.Objects {
		total += o.Cost.ModeledCycles
	}
	for _, f := range rep.Findings {
		saved += f.CyclesSaved
	}
	if total == 0 {
		return 1
	}
	if saved >= total {
		saved = total - 1
	}
	return float64(total) / float64(total-saved)
}

// RenderTable4 prints the optimization outcomes, including the cost
// model's predicted traffic speedup for each naive variant.
func RenderTable4(w io.Writer, rows []Table4Row) {
	fmt.Fprintf(w, "%-24s %12s %12s %10s %9s %9s %9s  %s\n",
		"Program", "naive peak", "opt peak", "reduction", "RTX3090", "A100", "pred", "Domain")
	fmt.Fprintln(w, strings.Repeat("-", 110))
	for _, r := range rows {
		red := fmt.Sprintf("%.0f%%", r.ReductionPct)
		sRTX, sA100 := "-", "-"
		if r.Perf {
			sRTX = fmt.Sprintf("%.2fx", r.SpeedupRTX3090)
			sA100 = fmt.Sprintf("%.2fx", r.SpeedupA100)
			if r.ReductionPct < 1 {
				red = "-"
			}
		}
		pred := "-"
		if r.PredictedSpeedup > 0 {
			pred = fmt.Sprintf("%.2fx", r.PredictedSpeedup)
		}
		fmt.Fprintf(w, "%-24s %12d %12d %10s %9s %9s %9s  %s\n",
			r.Program, r.NaivePeak, r.OptPeak, red, sRTX, sA100, pred, r.Domain)
	}
}

// Table5Row records, per pattern, which tools can detect it anywhere in
// the workload suite.
type Table5Row struct {
	Pattern          pattern.Pattern
	DrGPUM           bool
	ValueExpert      bool
	ComputeSanitizer bool
}

// Table5 runs DrGPUM and both baseline tools over every naive workload and
// aggregates which patterns each tool's methodology surfaces. It runs on
// the shared engine; see Table5With.
func Table5(spec gpu.DeviceSpec) ([]Table5Row, error) {
	return Table5With(engine.Default(), spec)
}

// Table5With is Table5 on a caller-supplied engine. The DrGPUM profiles
// use exactly the Table 1 tuples, so on a shared engine they are cache
// hits; only the baseline runs (their own uninstrumented-by-DrGPUM
// devices with full per-access visibility) are new work.
func Table5With(e *engine.Engine, spec gpu.DeviceSpec) ([]Table5Row, error) {
	ws := workloads.All()
	specs := make([]engine.RunSpec, 0, 2*len(ws))
	for _, w := range ws {
		specs = append(specs, engine.RunSpec{
			Workload: w,
			Spec:     spec,
			Variant:  workloads.VariantNaive,
			Level:    gpu.PatchFull,
			Sampling: 1,
		})
	}
	for _, w := range ws {
		specs = append(specs, engine.RunSpec{
			Mode:     engine.ModeBaselines,
			Workload: w,
			Spec:     spec,
			Variant:  workloads.VariantNaive,
		})
	}
	results, err := e.Run(specs)
	if err != nil {
		return nil, err
	}

	drgpum := make(map[pattern.Pattern]bool)
	ve := make(map[pattern.Pattern]bool)
	cs := make(map[pattern.Pattern]bool)
	for i := range ws {
		for _, p := range results[i].Report.PatternSet() {
			drgpum[p] = true
		}
		bl := results[len(ws)+i].Baselines
		for _, p := range bl.ValueExpert {
			ve[p] = true
		}
		for _, p := range bl.ComputeSanitizer {
			cs[p] = true
		}
	}

	var rows []Table5Row
	for _, p := range pattern.All() {
		rows = append(rows, Table5Row{
			Pattern:          p,
			DrGPUM:           drgpum[p],
			ValueExpert:      ve[p],
			ComputeSanitizer: cs[p],
		})
	}
	return rows, nil
}

// RenderTable5 prints the tool-coverage matrix in the paper's layout.
func RenderTable5(w io.Writer, rows []Table5Row) {
	fmt.Fprintf(w, "%-30s %-8s %-12s %-17s\n", "Inefficiency pattern", "DrGPUM", "ValueExpert", "Compute Sanitizer")
	fmt.Fprintln(w, strings.Repeat("-", 70))
	yn := func(b bool) string {
		if b {
			return "Yes"
		}
		return "No"
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-30s %-8s %-12s %-17s\n", r.Pattern, yn(r.DrGPUM), yn(r.ValueExpert), yn(r.ComputeSanitizer))
	}
}
