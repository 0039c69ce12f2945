// Package drgpum is an object-centric GPU memory profiler: a Go
// reproduction of "DrGPUM: Guiding Memory Optimization for GPU-Accelerated
// Applications" (ASPLOS 2023).
//
// DrGPUM attaches to a simulated GPU device (package gpusim), intercepts
// every GPU API (allocation, deallocation, copy, set, kernel launch) and —
// at intra-object granularity — every memory instruction of instrumented
// kernels. From that event stream it builds a timestamp-augmented
// object-level memory access trace, a multi-stream dependency graph with
// topological timestamps, and per-object access bitmaps and frequency
// maps; over these it detects ten patterns of memory inefficiency and
// emits ranked findings with call paths, inefficiency distances, and
// actionable optimization suggestions.
//
// A deterministic memory-hierarchy cost model (on by default; see
// WithCostModel, WithoutCostModel and DESIGN.md §4.9) additionally prices
// every finding in modeled cycles: per-warp accesses are coalesced into
// memory transactions and played through set-associative L1/L2 caches and
// a TLB-reach check, findings gain ModeledCycles/CyclesSaved, the advice
// ranking orders by cycles saved, and an eleventh pattern —
// uncoalesced-access — flags kernels whose transaction count far exceeds
// the coalesced ideal. Report.Advice flattens the findings into one
// uniformly-shaped, ranked []Advice slice for programmatic consumers.
//
// Minimal usage:
//
//	dev := gpusim.NewDevice(gpusim.SpecRTX3090())
//	prof := drgpum.New(dev, drgpum.WithIntraObject())
//	// ... run GPU work on dev ...
//	report := prof.Finish()
//	report.Export(os.Stdout, drgpum.FormatText)
//
// New is the one constructor; functional options select granularity and
// extras (drgpum.WithMemcheck, drgpum.WithObservability,
// drgpum.WithThresholds, ...), and Report.Export is the one exporter
// behind every output format (text, Perfetto GUI JSON, HTML, saved
// profile, self-observability stats). Attach, DefaultConfig,
// IntraObjectConfig, ExportGUI and ExportHTML remain as thin wrappers
// over the same paths.
//
// The profiler must be attached before the monitored GPU activity starts.
// Annotate allocations with application-level names so reports speak the
// program's language:
//
//	ptr, err := dev.Malloc(n)
//	if err != nil {
//	    log.Fatal(err)
//	}
//	prof.Annotate(ptr, "d_data_in1", 4)
//
// Setting Config.Memcheck additionally attaches a compute-sanitizer-style
// memory-safety checker: the allocator gains red zones and a quarantine of
// freed ranges, and Report.Memcheck lists out-of-bounds accesses,
// use-after-free, reads of never-written bytes, and unfreed allocations,
// each with call paths (see examples/memcheck).
package drgpum

import (
	"io"

	"drgpum/internal/core"
	"drgpum/internal/costmodel"
	"drgpum/internal/gpu"
	_ "drgpum/internal/gui" // registers the GUI and HTML exporters
	"drgpum/internal/intraobj"
	"drgpum/internal/objlevel"
	"drgpum/internal/obs"
	"drgpum/internal/pattern"
	"drgpum/internal/pool"
)

// Profiler is an attached DrGPUM instance. See core.Profiler.
type Profiler = core.Profiler

// Config carries the profiler's user-tunable thresholds and instrumentation
// settings. See core.Config.
type Config = core.Config

// Report is the profiler's output: the annotated trace, dependency graph,
// memory peaks and ranked findings. See core.Report.
type Report = core.Report

// Finding is one detected inefficiency instance.
type Finding = pattern.Finding

// Pattern enumerates the inefficiency patterns: the ten of the paper's §3
// plus the repo's uncoalesced-access extension (DESIGN.md §4.9).
type Pattern = pattern.Pattern

// The inefficiency patterns, in the paper's Table 1 order, followed by the
// repo extensions.
const (
	EarlyAllocation           = pattern.EarlyAllocation
	LateDeallocation          = pattern.LateDeallocation
	RedundantAllocation       = pattern.RedundantAllocation
	UnusedAllocation          = pattern.UnusedAllocation
	MemoryLeak                = pattern.MemoryLeak
	TemporaryIdleness         = pattern.TemporaryIdleness
	DeadWrite                 = pattern.DeadWrite
	Overallocation            = pattern.Overallocation
	NonUniformAccessFrequency = pattern.NonUniformAccessFrequency
	StructuredAccess          = pattern.StructuredAccess
	// UncoalescedAccess is the cost model's traffic pattern: a kernel whose
	// per-warp memory transactions far exceed the coalesced ideal. A repo
	// extension beyond the paper's ten (DESIGN.md §4.9).
	UncoalescedAccess = pattern.UncoalescedAccess
)

// NumPaperPatterns counts the patterns of the paper's §3; AllPatterns()
// lists these first, then the repo extensions.
const NumPaperPatterns = pattern.NumPaperPatterns

// AllPatterns returns every pattern in table order (paper patterns first).
func AllPatterns() []Pattern { return pattern.All() }

// ParsePatternID resolves a stable kebab-case pattern identifier (e.g.
// "uncoalesced-access") as used in the unified JSON schemas of the CLI
// tools. The boolean reports whether the ID is known.
func ParsePatternID(id string) (Pattern, bool) { return pattern.ParseID(id) }

// SeverityClass buckets findings for the unified JSON schema: info,
// warning, error.
type SeverityClass = pattern.SeverityClass

// The severity classes shared by all finding-producing tools.
const (
	SeverityInfo    = pattern.SeverityInfo
	SeverityWarning = pattern.SeverityWarning
	SeverityError   = pattern.SeverityError
)

// Advice is one entry of the unified, ranked advice list derived from a
// report's findings: pattern identity, the object and kernel involved, the
// modeled byte and cycle savings, a severity class and a confidence score,
// and the concrete source-change suggestion. See core.Advice and
// Report.Advice.
type Advice = core.Advice

// CostModelSpec parameterizes the deterministic memory-hierarchy cost
// model (DESIGN.md §4.9): warp-coalescing geometry, L1/L2 cache shapes,
// TLB reach and latencies. See costmodel.Spec; the zero value derives a
// device-appropriate spec at attach time.
type CostModelSpec = costmodel.Spec

// CostModelConfig carries the cost model's configuration (Config.CostModel):
// an optional explicit Spec and the uncoalesced-access detector thresholds.
// See core.CostModelConfig.
type CostModelConfig = core.CostModelConfig

// ObjLevelThresholds holds the object-level detector thresholds
// (Config.ObjLevel). See objlevel.Config.
type ObjLevelThresholds = objlevel.Config

// IntraObjThresholds holds the intra-object detector thresholds
// (Config.IntraObj). See intraobj.Config.
type IntraObjThresholds = intraobj.Config

// Observer is a self-observability recorder (internal/obs): phase spans,
// counters and deterministic snapshots of what the profiler itself did.
// Create one with NewObserver, install it with WithObserver (or let
// WithObservability create one), and read it back via
// Profiler.Observability, Report.Obs or Report.Stats.
type Observer = obs.Recorder

// ObsSnapshot is a point-in-time, JSON-marshalable view of an Observer.
type ObsSnapshot = obs.Snapshot

// NewObserver returns an enabled self-observability recorder.
func NewObserver() *Observer { return obs.New() }

// Format selects a Report.Export output format.
type Format = core.Format

// The report export formats.
const (
	// FormatText is the human-readable report (Report.Render).
	FormatText = core.FormatText
	// FormatGUI is the Perfetto/Chrome-trace JSON export (ExportGUI).
	FormatGUI = core.FormatGUI
	// FormatHTML is the self-contained HTML report (ExportHTML).
	FormatHTML = core.FormatHTML
	// FormatProfile is the saved profile AnalyzeProfile re-reads
	// (Report.SaveProfile).
	FormatProfile = core.FormatProfile
	// FormatStats is the self-observability summary (Report.Stats).
	FormatStats = core.FormatStats
)

// Option configures New. Options apply in order over DefaultConfig, so a
// later option overrides an earlier one; for full manual control start
// from WithConfig and layer adjustments after it.
type Option func(*Config)

// New attaches a profiler to the device, configured by the given options
// over DefaultConfig. It is the package's one constructor — Attach is
// New(dev, WithConfig(cfg)). Call it before the monitored GPU activity
// starts.
func New(dev *gpu.Device, opts ...Option) *Profiler {
	cfg := core.DefaultConfig()
	for _, opt := range opts {
		if opt != nil {
			opt(&cfg)
		}
	}
	return core.Attach(dev, cfg)
}

// WithConfig replaces the whole configuration (the escape hatch for
// callers holding a prepared Config). Later options still apply on top.
func WithConfig(cfg Config) Option {
	return func(c *Config) { *c = cfg }
}

// WithIntraObject raises instrumentation to intra-object granularity:
// kernels are patched so every memory instruction feeds the per-object
// bitmaps and frequency maps (IntraObjectConfig's granularity).
func WithIntraObject() Option {
	return func(c *Config) { c.Level = gpu.PatchFull }
}

// WithObjectLevel lowers instrumentation back to object-level granularity
// (the DefaultConfig granularity; useful after WithConfig).
func WithObjectLevel() Option {
	return func(c *Config) { c.Level = gpu.PatchAPI }
}

// WithMemcheck attaches the memory-safety checker to the run (see
// Config.Memcheck).
func WithMemcheck() Option {
	return func(c *Config) { c.Memcheck = true }
}

// WithObservability enables self-observability with a fresh recorder (see
// Config.Obs); read it back via Profiler.Observability or Report.Stats.
func WithObservability() Option {
	return func(c *Config) { c.Obs = obs.New() }
}

// WithObserver installs a caller-owned self-observability recorder, e.g.
// one shared across several profilers to aggregate them.
func WithObserver(rec *Observer) Option {
	return func(c *Config) { c.Obs = rec }
}

// WithThresholds replaces both detector threshold sets.
func WithThresholds(objLevel ObjLevelThresholds, intraObj IntraObjThresholds) Option {
	return func(c *Config) {
		c.ObjLevel = objLevel
		c.IntraObj = intraObj
	}
}

// WithTopPeaks sets how many memory peaks the analyzer reports (paper: 2).
func WithTopPeaks(n int) Option {
	return func(c *Config) { c.TopPeaks = n }
}

// WithSamplingPeriod instruments every Nth launch of each kernel for
// intra-object analysis (paper §5.5; values <= 1 instrument every launch).
func WithSamplingPeriod(n int) Option {
	return func(c *Config) { c.SamplingPeriod = n }
}

// WithKernelWhitelist restricts intra-object instrumentation to the named
// kernels (paper §5.5). No names means all kernels.
func WithKernelWhitelist(kernels ...string) Option {
	return func(c *Config) { c.KernelWhitelist = kernels }
}

// StreamingConfig configures windowed streaming analysis
// (Config.Streaming). See core.StreamingConfig.
type StreamingConfig = core.StreamingConfig

// HeatMap is the temporal heat map a streaming run attaches to its report
// (Report.Heat): per kernel-epoch, how many GPU APIs touched each object.
// See core.HeatMap.
type HeatMap = core.HeatMap

// HeatEpoch is one closed kernel-epoch window of a HeatMap.
type HeatEpoch = core.HeatEpoch

// HeatCell is one object's touch count within a HeatEpoch.
type HeatCell = core.HeatCell

// WithStreaming enables streaming windowed analysis: liveness, peak and
// intra-object state are finalized incrementally as kernel-epoch windows
// close, raw per-invocation payloads are retired so collector memory stays
// bounded by the open window, and the report gains a temporal heat map
// (Report.Heat, Report.RenderHeatMap). The findings and summary are
// byte-identical to an offline run. windowKernels is the epoch length in
// kernel launches (<= 0 selects the default, core.DefaultWindowKernels).
// Streamed reports cannot be saved as profiles (the access history is
// gone); use an offline run for FormatProfile.
func WithStreaming(windowKernels int) Option {
	return func(c *Config) {
		c.Streaming = StreamingConfig{Enabled: true, WindowKernels: windowKernels}
	}
}

// WithCostModel enables the memory-hierarchy cost model with an explicit
// spec (the zero CostModelSpec derives one from the device at attach
// time). The model is on by default; this option exists to override the
// derived parameters. Every finding then carries modeled cycles, advice is
// ranked by cycles saved, and the uncoalesced-access detector runs.
func WithCostModel(spec CostModelSpec) Option {
	return func(c *Config) {
		c.CostModel.Disabled = false
		c.CostModel.Spec = spec
	}
}

// WithoutCostModel disables the memory-hierarchy cost model: no per-access
// cost tracking, no uncoalesced-access detection, and findings fall back
// to the byte-ranked severity ordering of earlier releases.
func WithoutCostModel() Option {
	return func(c *Config) { c.CostModel.Disabled = true }
}

// Attach hooks a profiler up to a device and enables instrumentation at the
// configured level. Call it before the monitored GPU activity starts. It is
// equivalent to New(dev, WithConfig(cfg)).
func Attach(dev *gpu.Device, cfg Config) *Profiler { return New(dev, WithConfig(cfg)) }

// DefaultConfig returns the paper's experimental settings at object-level
// analysis granularity (every GPU API intercepted; no per-instruction
// instrumentation).
func DefaultConfig() Config { return core.DefaultConfig() }

// IntraObjectConfig returns DefaultConfig raised to intra-object
// granularity: kernels are patched so every memory instruction feeds the
// per-object bitmaps and frequency maps.
func IntraObjectConfig() Config { return core.IntraObjectConfig() }

// ExportGUI writes a report as a Perfetto/Chrome-trace JSON file (the
// paper's liveness.json): per-stream GPU API timeline, lifetime tracks of
// the data objects at the top memory peaks, the device-memory curve, and
// per-API inefficiency details. Open it at https://ui.perfetto.dev. It is
// equivalent to rep.Export(w, FormatGUI).
func ExportGUI(rep *Report, w io.Writer) error { return rep.Export(w, FormatGUI) }

// AnalyzeProfile loads a profile previously written with
// Report.SaveProfile and re-runs the offline analyses (dependency
// ordering, peak mining, the seven object-level detectors) under the given
// configuration — different thresholds included — without re-executing the
// program. Intra-object findings are online-only and are not recomputed.
func AnalyzeProfile(r io.Reader, cfg Config) (*Report, error) {
	return core.AnalyzeProfile(r, cfg)
}

// ExportHTML writes a report as one self-contained HTML page — run
// statistics, an inline-SVG memory timeline with the mined peaks marked,
// and the ranked findings with metrics, suggestions and allocation call
// paths. The file has no external references and works offline. It is
// equivalent to rep.Export(w, FormatHTML).
func ExportHTML(rep *Report, w io.Writer) error { return rep.Export(w, FormatHTML) }

// Pool is a caching device-memory allocator (the PyTorch CUDA caching
// allocator analog). Use Profiler.AttachPool to give the profiler
// visibility into its custom memory APIs (paper §5.4).
type Pool = pool.Pool

// NewPool creates a caching allocator over dev growing in segments of
// segmentBytes (0 selects 1 MiB).
func NewPool(dev *gpu.Device, segmentBytes uint64) *Pool { return pool.New(dev, segmentBytes) }

// BFC is a best-fit-with-coalescing arena allocator in the style of
// TensorFlow's BFC allocator — the paper's other custom-memory-API target
// (§8 future work). It implements the same Observable surface as Pool, so
// Profiler.AttachPool works identically.
type BFC = pool.BFC

// NewBFC creates a BFC arena allocator of arenaBytes (0 selects 1 MiB).
// The arena is reserved lazily at first allocation so a profiler attached
// after construction still observes it.
func NewBFC(dev *gpu.Device, arenaBytes uint64) *BFC { return pool.NewBFC(dev, arenaBytes) }
