package engine

import (
	"fmt"
	"time"

	"drgpum/internal/baselines"
	"drgpum/internal/core"
	"drgpum/internal/gpu"
	"drgpum/internal/memcheck"
	"drgpum/internal/obs"
	"drgpum/internal/pool"
	"drgpum/internal/workloads"
)

// runDetached executes one run body on a fresh goroutine and waits for
// it. The detour is not about concurrency — the caller blocks — but
// about the call stack: the profiler interns full host call paths
// (internal/callpath), and a goroutine spawned here always has the same
// fixed stack base under the workload frames. Without it, the same run
// submitted from the drgpum CLI's main goroutine, a parallel pool
// worker, or a drgpum-serve session goroutine would intern different
// path tables, and the profile/GUI exports — which serialize those
// tables — would not be byte-identical across submitting contexts (the
// serve contract tests pin that identity over HTTP).
func runDetached(s RunSpec, rec *obs.Recorder) Result {
	ch := make(chan Result, 1)
	go func() { ch <- exec(s, rec) }()
	return <-ch
}

// exec dispatches one run body. Every body builds its own gpu.Device, so
// runs are fully independent; the wall clock starts after device
// construction (matching the overhead figure's methodology) and, for
// profile runs, includes offline analysis — analysis is part of the
// profiling cost the paper measures. rec is the run's private
// self-observability recorder (nil when the engine has none); native and
// baseline runs have nothing to record.
func exec(s RunSpec, rec *obs.Recorder) Result {
	switch s.Mode {
	case ModeNative:
		return execNative(s)
	case ModeBaselines:
		return execBaselines(s)
	case ModeMemcheck:
		return execMemcheck(s, rec)
	default:
		return execProfile(s, rec)
	}
}

// execProfile is the engine's form of a standard DrGPUM profiling run
// (the paper's configuration, as in tables.Profile): object-level at
// gpu.PatchAPI, intra-object at gpu.PatchFull with the workload's paper
// kernel whitelist and the spec'd sampling period.
func execProfile(s RunSpec, rec *obs.Recorder) Result {
	dev := gpu.NewDevice(s.Spec)
	start := time.Now()
	cfg := core.DefaultConfig()
	cfg.Level = s.Level
	cfg.SamplingPeriod = s.Sampling
	cfg.Memcheck = s.Opts.Memcheck
	cfg.Obs = rec
	if s.Level == gpu.PatchFull {
		cfg.KernelWhitelist = s.Workload.IntraKernels
	}
	if s.Streaming {
		cfg.Streaming = core.StreamingConfig{Enabled: true, WindowKernels: s.Window}
	}
	prof := core.Attach(dev, cfg)
	if err := s.Workload.Run(dev, prof, s.Variant); err != nil {
		return Result{Err: fmt.Errorf("%s (%s): %w", s.Workload.Name, s.Variant, err)}
	}
	rep := prof.Finish()
	return Result{Report: rep, Wall: time.Since(start)}
}

// execNative runs without any instrumentation: the Figure 6 baseline and
// the Table 4 speedup measurements. Cycles is the simulated device time.
func execNative(s RunSpec) Result {
	dev := gpu.NewDevice(s.Spec)
	start := time.Now()
	if err := s.Workload.Run(dev, workloads.NopHost(), s.Variant); err != nil {
		return Result{Err: fmt.Errorf("%s (%s): %w", s.Workload.Name, s.Variant, err)}
	}
	return Result{Cycles: dev.Elapsed(), Wall: time.Since(start)}
}

// execBaselines gives the baseline tools their own uninstrumented-by-
// DrGPUM run with full per-access visibility (the Table 5 methodology).
func execBaselines(s RunSpec) Result {
	dev := gpu.NewDevice(s.Spec)
	start := time.Now()
	vex := baselines.NewValueExpert()
	mc := baselines.NewMemcheck()
	dev.AddHook(vex)
	dev.AddHook(mc)
	dev.SetPatchLevel(gpu.PatchFull)
	if err := s.Workload.Run(dev, workloads.NopHost(), s.Variant); err != nil {
		return Result{Err: fmt.Errorf("%s baselines: %w", s.Workload.Name, err)}
	}
	return Result{
		Baselines: &BaselineResult{
			ValueExpert:      vex.DetectedPatterns(),
			ComputeSanitizer: mc.DetectedPatterns(),
		},
		Wall: time.Since(start),
	}
}

// checkerHost forwards workload annotations to the checker so memcheck
// reports name objects; pool attachment is ignored (memcheck tracks
// driver allocations).
type checkerHost struct{ c *memcheck.Checker }

func (h checkerHost) Annotate(ptr gpu.DevicePtr, label string, _ uint32) bool {
	h.c.Annotate(ptr, label)
	return true
}
func (h checkerHost) AttachPool(pool.Observable) {}

// execMemcheck runs the memory-safety checker standalone on a fully
// instrumented device — the regression gate's configuration. Level and
// Sampling are ignored: the checker observes every kernel.
func execMemcheck(s RunSpec, rec *obs.Recorder) Result {
	dev := gpu.NewDevice(s.Spec)
	start := time.Now()
	c := memcheck.Attach(dev, memcheck.DefaultConfig())
	c.SetObs(rec)
	dev.SetPatchLevel(gpu.PatchFull)
	if err := s.Workload.Run(dev, checkerHost{c}, s.Variant); err != nil {
		return Result{Err: fmt.Errorf("%s (%s) memcheck: %w", s.Workload.Name, s.Variant, err)}
	}
	return Result{Memcheck: c.Report(), Wall: time.Since(start)}
}
