// Package core implements the DrGPUM profiler: it wires the online data
// collector to a device, drives the dependency and peak analyses, runs the
// object-level and intra-object pattern detectors, and assembles the final
// report with call paths, inefficiency distances, severities and
// optimization suggestions (paper §4's four-stage workflow).
package core

import (
	"sort"
	"sync"

	"drgpum/internal/advisor"
	"drgpum/internal/costmodel"
	"drgpum/internal/depgraph"
	"drgpum/internal/gpu"
	"drgpum/internal/intraobj"
	"drgpum/internal/memcheck"
	"drgpum/internal/objlevel"
	"drgpum/internal/obs"
	"drgpum/internal/pattern"
	"drgpum/internal/peak"
	"drgpum/internal/pool"
	"drgpum/internal/trace"
)

// Config carries every user-tunable knob the paper describes.
type Config struct {
	// Level selects the analysis granularity: gpu.PatchAPI for object-level
	// analysis only, gpu.PatchFull to add intra-object analysis.
	Level gpu.PatchLevel
	// ObjLevel holds the object-level detector thresholds.
	ObjLevel objlevel.Config
	// IntraObj holds the intra-object detector thresholds.
	IntraObj intraobj.Config
	// TopPeaks is how many memory peaks the analyzer reports (paper: 2).
	TopPeaks int
	// KernelWhitelist restricts intra-object instrumentation to the listed
	// kernel names (paper §5.5). Empty means all kernels.
	KernelWhitelist []string
	// SamplingPeriod instruments every Nth launch of each kernel for
	// intra-object analysis (paper §5.5; Figure 6 uses 100). Values <= 1
	// instrument every launch.
	SamplingPeriod int
	// ObjectIDMode selects the kernel object-identification scheme; the
	// default is the paper's optimized hit-flag design.
	ObjectIDMode gpu.ObjectIDMode
	// DefaultElemSize is assumed for unannotated objects (bytes).
	DefaultElemSize uint32
	// Memcheck attaches the memory-safety checker (internal/memcheck) to
	// the run: the allocator gains red zones and a freed-range quarantine,
	// and the report gains an out-of-bounds / use-after-free /
	// uninitialized-read / leak section. Address layout and the allocator's
	// in-use accounting change under memcheck, so leave it off for the
	// paper's peak-memory and overhead measurements.
	Memcheck bool
	// Obs installs a self-observability recorder (internal/obs): attach,
	// ingestion, finalization, every offline analyzer and the memcheck scan
	// report phase spans and counters into it, and the report carries a
	// snapshot (Report.Obs, Report.Stats). Nil disables self-observability
	// at near-zero cost. Sharing one recorder across several profilers
	// aggregates them (counter updates are atomic; same-name spans merge).
	Obs *obs.Recorder
	// SequentialAnalysis forces the offline analysis stages to run strictly
	// sequentially on one goroutine. The default concurrent pipeline is
	// deterministic (reports are byte-identical either way — the
	// determinism regression tests pin this); the switch exists for
	// debugging and for environments where the analyzer must not spawn
	// goroutines.
	SequentialAnalysis bool
	// Streaming enables incremental kernel-epoch analysis with bounded
	// collector memory and a temporal heat map (Report.Heat). Finish
	// reports stay byte-identical to the offline pipeline; see
	// StreamingConfig.
	Streaming StreamingConfig
	// CostModel configures the memory-hierarchy cost model (DESIGN.md
	// §4.9). The model is on by default: kernels account per-warp
	// transactions against a modeled L1/L2/DRAM hierarchy, every finding
	// carries a ModeledCycles/CyclesSaved estimate, severity ranks by
	// cycles saved, and the uncoalesced-access detector runs.
	CostModel CostModelConfig
}

// CostModelConfig carries the cost-model knobs (Config.CostModel).
type CostModelConfig struct {
	// Disabled turns the model off: findings carry no cycle estimates,
	// severity falls back to the byte-based formula, and no
	// uncoalesced-access detection runs.
	Disabled bool
	// Spec overrides the model parameters. The zero Spec (SectorBytes ==
	// 0) derives parameters from the attached device (costmodel.SpecFor).
	Spec costmodel.Spec
	// MinWarps is the minimum modeled warp count before the
	// uncoalesced-access detector reports an object; tiny kernels produce
	// unstable transaction ratios. <= 0 selects DefaultUCMinWarps.
	MinWarps int
	// ExcessRatio is the transactions-to-ideal ratio at which an object's
	// kernel traffic counts as uncoalesced. <= 0 selects
	// DefaultUCExcessRatio.
	ExcessRatio float64
}

// DefaultUCMinWarps and DefaultUCExcessRatio are the uncoalesced-access
// detector defaults: at least 4 full warps of evidence, and at least twice
// the coalesced-ideal transaction count. The ratio is a property of the
// access pattern's geometry, not of any cache size, so detection is stable
// across device specs (the Table 1 device-stability test relies on this).
const (
	DefaultUCMinWarps    = 4
	DefaultUCExcessRatio = 2.0
)

// DefaultConfig returns the paper's experimental settings at object-level
// granularity.
func DefaultConfig() Config {
	return Config{
		Level:           gpu.PatchAPI,
		ObjLevel:        objlevel.DefaultConfig(),
		IntraObj:        intraobj.DefaultConfig(),
		TopPeaks:        2,
		DefaultElemSize: 4,
	}
}

// IntraObjectConfig returns DefaultConfig raised to intra-object
// granularity.
func IntraObjectConfig() Config {
	c := DefaultConfig()
	c.Level = gpu.PatchFull
	return c
}

// Profiler is an attached DrGPUM instance. Attach it before the workload
// runs; call Finish afterwards to obtain the report.
type Profiler struct {
	dev       *gpu.Device
	cfg       Config
	collector *trace.Collector
	recorder  *intraobj.Recorder
	checker   *memcheck.Checker
	window    *windowManager // nil unless Config.Streaming.Enabled

	// whitelist and samplePeriod are the instrument-filter inputs, built
	// once at Attach so the filter closure never reconstructs them.
	whitelist    map[string]bool
	samplePeriod uint64

	// obs is Config.Obs (possibly nil); the *Pub fields track how much of
	// each cumulative device statistic has already been published, so
	// repeated analyze passes (Snapshot then Finish) add deltas instead of
	// double-counting on a shared recorder.
	obs         *obs.Recorder
	allocOpsPub uint64
	evictPub    uint64
	checkedPub  uint64
}

// Attach hooks a profiler up to the device and enables instrumentation at
// the configured level. It must be called before the monitored GPU activity
// starts; APIs invoked earlier are not observed.
func Attach(dev *gpu.Device, cfg Config) *Profiler {
	if cfg.TopPeaks <= 0 {
		cfg.TopPeaks = 2
	}
	if cfg.DefaultElemSize == 0 {
		cfg.DefaultElemSize = 4
	}
	p := &Profiler{dev: dev, cfg: cfg, collector: trace.NewCollector(), obs: cfg.Obs}
	attachSpan := p.obs.Root().Child("attach").Start()
	p.collector.SetObs(p.obs)
	if cfg.Memcheck {
		// Before anything else: the checker reshapes the allocator (red
		// zones, quarantine), which must happen before the first allocation.
		p.checker = memcheck.Attach(dev, memcheck.DefaultConfig())
		p.checker.SetObs(p.obs)
	}
	p.collector.DefaultElemSize = cfg.DefaultElemSize
	p.collector.SetHostTraceMode(cfg.ObjectIDMode == gpu.ObjectIDHostTrace)

	if cfg.Level == gpu.PatchFull {
		p.recorder = intraobj.NewRecorder(dev.Spec().MemoryCapacity)
		p.recorder.LiveBytes = func() uint64 { return dev.MemStats().InUse }
		p.recorder.SetObs(p.obs)
		p.collector.SetSink(p.recorder)
		dev.SetInstrumentFilter(p.instrumentFilter())
	}

	if cfg.CostModel.Disabled {
		dev.DisableCostModel()
	} else {
		dev.SetCostModel(cfg.CostModel.Spec)
	}
	dev.SetObjectIDMode(cfg.ObjectIDMode)
	// The hit-flag object table must come from the profiler's memory map M,
	// not the raw allocator, so pool tensors (paper §5.4) resolve correctly.
	dev.SetLiveRangesProvider(p.collector.LiveRanges)
	dev.AddHook(p.collector)
	if cfg.Streaming.Enabled {
		// After the collector: the window manager's OnAPI must see the
		// just-appended APIInfo with final touch sets.
		p.window = newWindowManager(p.collector.Trace(), p.recorder, cfg)
		dev.AddHook(p.window)
	}
	dev.SetPatchLevel(cfg.Level)
	attachSpan.End()
	return p
}

// Observability returns the configured self-observability recorder (nil
// when Config.Obs was not set), for embedders that want live snapshots.
func (p *Profiler) Observability() *obs.Recorder { return p.obs }

// AttachPool integrates a custom memory allocator (the caching Pool, the
// BFC arena, or any other pool.Observable): backing segments the allocator
// reserves are delisted from the memory map so that kernel accesses and
// pattern analysis operate on the allocator's tensors instead (paper
// §5.4). Call it right after creating the allocator, before any
// allocation activity.
func (p *Profiler) AttachPool(pl pool.Observable) {
	pl.Register(func(ev pool.Event) {
		if ev.Kind == pool.EventSegment {
			p.collector.MarkPoolSegment(ev.Ptr)
		}
	})
}

// instrumentFilter combines the kernel whitelist and sampling period. The
// map and period are built once (first call) and reused, so repeated
// attach/filter paths don't reconstruct them.
func (p *Profiler) instrumentFilter() func(kernel string, launch uint64) bool {
	if p.whitelist == nil {
		p.whitelist = make(map[string]bool, len(p.cfg.KernelWhitelist))
		for _, k := range p.cfg.KernelWhitelist {
			p.whitelist[k] = true
		}
		p.samplePeriod = 1
		if p.cfg.SamplingPeriod > 1 {
			p.samplePeriod = uint64(p.cfg.SamplingPeriod)
		}
	}
	return func(kernel string, launch uint64) bool {
		if len(p.whitelist) > 0 && !p.whitelist[kernel] {
			return false
		}
		return launch%p.samplePeriod == 0
	}
}

// ForceHostAccessMaps makes the intra-object recorder behave as if the
// device had no spare memory for access maps, forcing the host-side update
// path of the paper's adaptive scheme (§5.5). It exists for the ablation
// experiments and is a no-op at object-level granularity.
func (p *Profiler) ForceHostAccessMaps() {
	if p.recorder != nil {
		p.recorder.CapacityBytes = 1
	}
}

// Annotate labels the live object based at ptr with an application-facing
// name and element size (0 keeps the default). It reports whether a live
// object starts at ptr.
func (p *Profiler) Annotate(ptr gpu.DevicePtr, label string, elemSize uint32) bool {
	if p.checker != nil {
		p.checker.Annotate(ptr, label)
	}
	return p.collector.Annotate(ptr, label, elemSize)
}

// Collector exposes the underlying collector (used by the custom-pool
// bridge of paper §5.4).
func (p *Profiler) Collector() *trace.Collector { return p.collector }

// Finish stops collection, runs the offline analyses and returns the
// report. It is idempotent in effect but must not race with device use.
func (p *Profiler) Finish() *Report {
	p.dev.SetPatchLevel(gpu.PatchNone)
	if p.window != nil {
		// Close the trailing partial window; no more APIs can arrive.
		p.window.finish()
	}
	return p.analyze()
}

// Snapshot runs the full analysis over everything collected so far and
// returns a report, without detaching the profiler — the paper's "online
// pattern detector" view, usable for live dashboards or mid-run
// checkpoints. Call it between GPU APIs (not from inside a kernel body):
// the intra-object maps of an in-flight kernel would otherwise be split
// across two observation windows. Leak and late-deallocation findings in a
// snapshot describe the state *so far* — an object the program frees later
// is still reported unfreed here. The returned Report's Findings, Peaks and
// statistics are point-in-time; its Trace field is a live view that keeps
// growing as collection continues.
func (p *Profiler) Snapshot() *Report {
	return p.analyze()
}

// analyze builds a report from the current collection state.
//
// The offline stages run as a two-step concurrent pipeline (the online
// collector is untouched — only the post-run analysis parallelizes):
//
//  1. depgraph.Annotate runs first and alone: it writes APIInfo.Topo, which
//     every later stage reads.
//  2. peak analysis, the object-level detectors and the intra-object
//     detectors are mutually independent — peak and objlevel only read the
//     trace, and the intra-object recorder mutates nothing but itself — so
//     they run concurrently.
//  3. The advisor's marginal-savings scan (itself fanned out per finding)
//     and the aggregate what-if estimate both only read the trace and the
//     findings, so they run concurrently too.
//
// Every stage writes to its own variable and the findings are concatenated
// and decorated in a fixed order, so the report is byte-identical to the
// sequential pipeline (Config.SequentialAnalysis; pinned by the determinism
// regression tests).
func (p *Profiler) analyze() *Report {
	// an is the analyze span-tree node (nil without observability); each
	// stage below opens a child span so per-analyzer self-time shows up in
	// the phase breakdown. Stage spans aggregate by name, so a concurrent
	// pass and a sequential pass record identical counts.
	an := p.obs.Root().Child("analyze")
	anSpan := an.Start()
	t := p.collector.Trace()

	// Streaming runs the same stages over incrementally maintained state:
	// timestamps and the dependency summary were assigned at arrival, the
	// peak miner runs over a timeline bounded by the tracked maximum
	// timestamp, and the object-level detectors read the arrival-time
	// accumulator instead of walking (possibly compacted) access lists.
	// Each branch funnels into the code path the offline pipeline uses, so
	// reports stay byte-identical (pinned by the streaming determinism
	// tests).
	var g *depgraph.Graph
	if p.window != nil {
		staged(an, "depgraph", func() { g = p.window.inc.Graph() })
	} else {
		staged(an, "depgraph", func() { g = depgraph.Annotate(t) })
	}

	costSpec, costOn := p.dev.CostModelSpec()

	var pk *peak.Analysis
	var objFindings, intraFindings, costFindings []pattern.Finding
	var modeStats intraobj.ModeStats
	p.runStages(
		func() {
			staged(an, "peak", func() {
				if p.window != nil {
					pk = peak.AnalyzeTimeline(t, p.cfg.TopPeaks, t.LiveBytesTimelineTo(p.window.maxTopo))
				} else {
					pk = peak.Analyze(t, p.cfg.TopPeaks)
				}
			})
		},
		func() {
			staged(an, "objlevel", func() {
				if p.window != nil {
					objFindings = objlevel.DetectStreamed(t, p.cfg.ObjLevel, p.window.acc)
				} else {
					objFindings = objlevel.Detect(t, p.cfg.ObjLevel)
				}
			})
		},
		func() {
			if p.recorder != nil {
				staged(an, "intraobj", func() {
					intraFindings = p.recorder.Detect(p.cfg.IntraObj)
					modeStats = p.recorder.Stats()
				})
			}
		},
		func() {
			if costOn {
				staged(an, "costmodel", func() {
					costFindings = detectUncoalesced(t, costSpec, p.cfg.CostModel)
				})
			}
		},
	)
	findings := append(objFindings, intraFindings...)
	findings = append(findings, costFindings...)

	var marginal []uint64
	var advice advisor.Estimate
	p.runStages(
		func() {
			staged(an, "marginal", func() {
				if p.cfg.SequentialAnalysis {
					marginal = advisor.MarginalSavingsSequential(t, findings)
				} else {
					marginal = advisor.MarginalSavings(t, findings)
				}
			})
		},
		func() { staged(an, "advise", func() { advice = advisor.Advise(t, findings) }) },
	)

	for i := range findings {
		f := &findings[i]
		f.OnPeak = pk.OnPeak(f.Object)
		f.PeakSavingsBytes = marginal[i]
		f.Suggestion = pattern.Suggest(t, f)
		if costOn {
			attachCycles(t, costSpec, f)
			f.Severity = severityCycles(f)
		} else {
			f.Severity = severity(f)
		}
	}
	sort.SliceStable(findings, func(i, j int) bool {
		if findings[i].Severity != findings[j].Severity {
			return findings[i].Severity > findings[j].Severity
		}
		if findings[i].Object != findings[j].Object {
			return findings[i].Object < findings[j].Object
		}
		return findings[i].Pattern < findings[j].Pattern
	})

	var mc *memcheck.Report
	if p.checker != nil {
		mc = p.checker.Report()
	}
	anSpan.End()

	rep := &Report{
		Device:    p.dev.Spec().Name,
		Trace:     t,
		Graph:     g,
		Peaks:     pk,
		Findings:  findings,
		MemStats:  p.dev.MemStats(),
		Elapsed:   p.dev.Elapsed(),
		ModeStats: modeStats,
		Recorder:  p.recorder,
		WhatIf:    advice,
		Memcheck:  mc,
	}
	if costOn {
		rep.CostModel = &costSpec
	}
	if p.window != nil {
		rep.Heat = p.window.Heat()
	}
	if p.obs.Enabled() {
		p.publishCounters(rep, pk)
		snap := p.obs.Snapshot()
		rep.Obs = &snap
	}
	return rep
}

// staged wraps one analysis stage in a span named under the analyze node.
func staged(an *obs.Node, name string, fn func()) {
	sp := an.Child(name).Start()
	fn()
	sp.End()
}

// publishCounters feeds the per-pass and cumulative counters after an
// analysis pass. Cumulative device statistics (allocator ops, quarantine
// evictions, memcheck reads) publish as deltas against the previous pass so
// shared recorders are never double-counted; per-pass quantities (peak
// candidates, findings per pattern) count each pass, matching how engine
// aggregation sums passes across runs.
func (p *Profiler) publishCounters(rep *Report, pk *peak.Analysis) {
	p.obs.Add(obs.CtrPeakCandidates, uint64(pk.Candidates))

	perPattern := make(map[pattern.Pattern]uint64)
	for i := range rep.Findings {
		perPattern[rep.Findings[i].Pattern]++
	}
	for _, pat := range pattern.All() {
		p.obs.AddNamed("findings/"+pat.Abbrev(), perPattern[pat])
	}

	ms := rep.MemStats
	allocOps := ms.TotalAllocations + (ms.TotalAllocations - uint64(ms.LiveAllocations))
	p.obs.Add(obs.CtrAllocOps, allocOps-p.allocOpsPub)
	p.allocOpsPub = allocOps
	p.obs.Add(obs.CtrQuarantineEvict, ms.QuarantineEvictions-p.evictPub)
	p.evictPub = ms.QuarantineEvictions
	if rep.Memcheck != nil {
		p.obs.AddNamed("memcheck/reads checked", rep.Memcheck.AccessesChecked-p.checkedPub)
		p.checkedPub = rep.Memcheck.AccessesChecked
	}
}

// runStages executes the given independent analysis stages, concurrently by
// default or in order under Config.SequentialAnalysis. The first stage runs
// on the calling goroutine either way.
func (p *Profiler) runStages(stages ...func()) {
	if p.cfg.SequentialAnalysis {
		for _, s := range stages {
			s()
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(stages) - 1)
	for _, s := range stages[1:] {
		go func() {
			defer wg.Done()
			s()
		}()
	}
	stages[0]()
	wg.Wait()
}

// severity ranks findings for report order: wasted bytes scaled by the
// inefficiency distance, doubled for objects on a reported memory peak
// (the paper prioritizes peak-involved objects, §4), and boosted by the
// advisor's estimate of the peak reduction this fix alone delivers — the
// strongest prioritization signal, since it measures the actual benefit
// rather than a proxy.
func severity(f *pattern.Finding) float64 {
	s := float64(f.WastedBytes)
	if f.Distance > 0 {
		s *= 1 + float64(f.Distance)/64
	}
	if f.Pattern == pattern.NonUniformAccessFrequency {
		// NUAF is a performance pattern, not a wastage pattern; rank by
		// variation magnitude instead of bytes.
		s = f.VariationPct * 1024
	}
	if f.OnPeak {
		s *= 2
	}
	s += 2 * float64(f.PeakSavingsBytes)
	return s
}
