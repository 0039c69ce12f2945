// Package engine is the deterministic parallel run engine behind every
// evaluation driver: the paper's tables, the overhead figure, the
// memcheck regression gate and the CLI tools all describe their
// profiling runs as RunSpec values and hand the whole batch to an
// Engine instead of executing them one at a time.
//
// Three properties make the engine safe to put under byte-identical
// renderers:
//
//   - Index-addressed results. Run returns a slice parallel to its
//     input: results[i] always belongs to specs[i], no matter which
//     worker finished it or in what order. Drivers consume results in
//     submission order, so every rendered table is byte-identical to
//     the sequential path (Config.Sequential pins that equivalence in
//     tests, mirroring core.Config.SequentialAnalysis).
//   - Memoized profiles. Untimed runs are cached under their full
//     configuration (mode, workload, device spec, variant, patch
//     level, sampling period, memcheck flag) with singleflight
//     semantics: concurrent requests for the same tuple share one
//     execution. Table 1, Table 5, the memcheck gate and the CLIs
//     profile overlapping tuples; each is now computed once per
//     process. Stats reports the hit/miss/dedup counts.
//   - An exclusive lane for timed runs. Wall-clock measurements
//     (overhead medians, Table 4 speedup runs) are meaningless with
//     concurrent neighbors stealing cycles, so RunOpts.Timed routes a
//     run through the write side of an RWMutex: it waits for every
//     in-flight untimed run to drain, runs alone, and only then lets
//     the pool resume. Timed runs also bypass the cache — a cached
//     wall-clock number is a contradiction, and median-of-N repeats
//     must not be deduplicated into one execution.
package engine

import (
	"runtime"
	"sync"
	"time"

	"drgpum/internal/core"
	"drgpum/internal/gpu"
	"drgpum/internal/memcheck"
	"drgpum/internal/obs"
	"drgpum/internal/pattern"
	"drgpum/internal/workloads"
)

// Mode selects what one run executes and which Result field it fills.
type Mode uint8

const (
	// ModeProfile attaches the DrGPUM profiler and yields Result.Report.
	ModeProfile Mode = iota
	// ModeNative runs uninstrumented and yields Result.Cycles (simulated
	// device time) plus Result.Wall.
	ModeNative
	// ModeBaselines runs the ValueExpert- and Compute-Sanitizer-style
	// baseline tools side by side and yields Result.Baselines.
	ModeBaselines
	// ModeMemcheck attaches only the memory-safety checker at full patch
	// level and yields Result.Memcheck.
	ModeMemcheck
)

// String names the mode (also the engine/<mode> span name).
func (m Mode) String() string {
	switch m {
	case ModeProfile:
		return "profile"
	case ModeNative:
		return "native"
	case ModeBaselines:
		return "baselines"
	case ModeMemcheck:
		return "memcheck"
	default:
		return "unknown"
	}
}

// RunOpts carries the scheduling- and instrumentation-extras of a run.
type RunOpts struct {
	// Memcheck attaches the memory-safety checker to a ModeProfile run
	// (core.Config.Memcheck).
	Memcheck bool
	// Timed marks a wall-clock-sensitive run: it executes on the
	// exclusive lane with no concurrent neighbors and is never cached or
	// deduplicated (each repeat of a median must really run).
	Timed bool
}

// RunSpec describes one run. Workload.Name identifies the program in the
// cache key, so two specs naming the same registered workload share a
// cache entry.
type RunSpec struct {
	Mode     Mode
	Workload *workloads.Workload
	Spec     gpu.DeviceSpec
	Variant  workloads.Variant
	// Level is the instrumentation granularity of a ModeProfile run; at
	// gpu.PatchFull the workload's paper kernel whitelist is applied.
	Level gpu.PatchLevel
	// Sampling is the intra-object kernel sampling period (<=1 means
	// every launch).
	Sampling int
	// Streaming runs a ModeProfile body with the streaming window manager
	// (core.Config.Streaming): incremental analysis, bounded collector
	// memory, temporal heat map. Window is the kernel-epoch length
	// (<= 0 selects the core default).
	Streaming bool
	Window    int
	Opts      RunOpts
}

// BaselineResult is what a ModeBaselines run detects.
type BaselineResult struct {
	ValueExpert      []pattern.Pattern
	ComputeSanitizer []pattern.Pattern
}

// Result is one run's outcome; the populated field depends on the mode.
// Cached results are shared between callers, so reports must be treated
// as read-only.
type Result struct {
	Report    *core.Report
	Memcheck  *memcheck.Report
	Baselines *BaselineResult
	// Cycles is the simulated device time of a ModeNative run.
	Cycles uint64
	// Wall is the host wall-clock duration of the run body (device
	// construction excluded, analysis included), measured at execution
	// time — a cache hit returns the original execution's Wall.
	Wall time.Duration
	Err  error
}

// Stats counts what the engine did. Runs = Hits + Dedups + Misses + Timed.
type Stats struct {
	// Runs is the number of specs submitted.
	Runs int
	// Hits are requests served from a completed cache entry.
	Hits int
	// Dedups are requests that piggybacked on an in-flight execution of
	// the same tuple (singleflight).
	Dedups int
	// Misses are fresh executions that populated the cache.
	Misses int
	// Timed are exclusive-lane runs (never cached).
	Timed int
}

// Config tunes an Engine.
type Config struct {
	// Workers bounds concurrent runs; <=0 means GOMAXPROCS. The
	// effective pool is min(Workers, len(specs)).
	Workers int
	// Sequential executes every batch in submission order on the calling
	// goroutine — the reference scheduling the determinism tests compare
	// the pool against. The cache stays active either way.
	Sequential bool
	// Obs, when enabled, is the engine's master self-observability
	// recorder. Every executed (non-cached) run gets a fresh per-run
	// recorder — so each Report's snapshot is run-local and byte-identical
	// regardless of scheduling — and the run's snapshot is merged into Obs
	// after the body finishes, under an engine/<mode> span. The Stats
	// counters are mirrored onto Obs as they accumulate. Note the
	// hits/dedups split depends on scheduling; only their sum is
	// deterministic across sequential and parallel runs.
	Obs *obs.Recorder
}

// Engine schedules runs and owns the profile cache. The zero value is
// not usable; construct with New.
type Engine struct {
	cfg Config

	mu    sync.Mutex // guards cache and stats
	cache map[key]*entry
	stats Stats

	// lane is the scheduling lane: untimed runs hold the read side for
	// their whole execution, timed runs take the write side. Go's
	// writer-preferring RWMutex blocks new readers while a writer waits,
	// so a timed run drains the pool, runs alone, and cannot be starved
	// by a stream of untimed work.
	lane sync.RWMutex

	// hookStart/hookEnd fire around every executed (non-cached) run
	// body, inside the lane hold. Test-only; see export_test.go.
	hookStart, hookEnd func(RunSpec)
}

// key is the memoization key: the full run configuration.
type key struct {
	mode      Mode
	workload  string
	spec      gpu.DeviceSpec
	variant   workloads.Variant
	level     gpu.PatchLevel
	sampling  int
	streaming bool
	window    int
	memcheck  bool
}

func keyOf(s RunSpec) key {
	return key{
		mode:      s.Mode,
		workload:  s.Workload.Name,
		spec:      s.Spec,
		variant:   s.Variant,
		level:     s.Level,
		sampling:  s.Sampling,
		streaming: s.Streaming,
		window:    s.Window,
		memcheck:  s.Opts.Memcheck,
	}
}

// entry is a singleflight cache slot: done closes when res is valid.
type entry struct {
	done chan struct{}
	res  Result
}

// New returns an engine with an empty cache.
func New(cfg Config) *Engine {
	return &Engine{cfg: cfg, cache: make(map[key]*entry)}
}

// defaultEngine is the process-wide engine the package-level driver
// entry points (tables.Table1, overhead.Measure, ...) share, so profiles
// are reused across drivers within one process.
var defaultEngine = New(Config{})

// Default returns the shared process-wide engine.
func Default() *Engine { return defaultEngine }

// workers resolves the effective pool size for a batch of n specs.
func (e *Engine) workers(n int) int {
	w := e.cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes every spec and returns the results in submission order,
// plus the first error (in submission order, not completion order) if
// any run failed. The result slice is always fully populated, so callers
// needing per-run context can scan it themselves.
func (e *Engine) Run(specs []RunSpec) ([]Result, error) {
	results, _, err := e.RunWithStats(specs)
	return results, err
}

// RunWithStats is Run plus a batch-local Stats delta: how this batch was
// satisfied (fresh executions, completed-entry hits, in-flight dedups,
// exclusive-lane timed runs), independent of whatever other batches the
// shared engine served concurrently. Stats.Runs always equals len(specs)
// and the runs=hits+dedups+misses+timed invariant holds per batch; note
// the hits/dedups split depends on scheduling, only their sum is
// deterministic. Multi-tenant callers (the drgpum-serve session store)
// use the delta to attribute shared-cache reuse to one submission.
//
// The fan-out uses the module's sanctioned concurrency shape (the
// sharedwrite lint contract): a semaphore bounds in-flight goroutines to
// the pool size, and each goroutine writes only results[i] and kinds[i]
// for the index it received as a parameter.
func (e *Engine) RunWithStats(specs []RunSpec) ([]Result, Stats, error) {
	results := make([]Result, len(specs))
	kinds := make([]runKind, len(specs))
	if nw := e.workers(len(specs)); e.cfg.Sequential || nw == 1 {
		for i := range specs {
			results[i], kinds[i] = e.runOne(specs[i])
		}
	} else {
		sem := make(chan struct{}, nw)
		var wg sync.WaitGroup
		for i := range specs {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				results[i], kinds[i] = e.runOne(specs[i])
				<-sem
			}(i)
		}
		wg.Wait()
	}
	batch := Stats{Runs: len(specs)}
	for _, k := range kinds {
		switch k {
		case runHit:
			batch.Hits++
		case runDedup:
			batch.Dedups++
		case runMiss:
			batch.Misses++
		case runTimed:
			batch.Timed++
		}
	}
	for i := range results {
		if results[i].Err != nil {
			return results, batch, results[i].Err
		}
	}
	return results, batch, nil
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// runKind classifies how runOne satisfied one spec — the per-spec form
// of the Stats fields, accumulated into batch deltas by RunWithStats.
type runKind uint8

const (
	runMiss runKind = iota
	runHit
	runDedup
	runTimed
)

// runOne resolves one spec: timed runs go straight to the exclusive
// lane; untimed runs consult the cache with singleflight semantics.
func (e *Engine) runOne(s RunSpec) (Result, runKind) {
	e.mu.Lock()
	e.stats.Runs++
	e.cfg.Obs.Add(obs.CtrEngineRuns, 1)
	if s.Opts.Timed {
		e.stats.Timed++
		e.cfg.Obs.Add(obs.CtrEngineTimed, 1)
		e.mu.Unlock()
		return e.execTimed(s), runTimed
	}
	k := keyOf(s)
	if ent, ok := e.cache[k]; ok {
		kind := runHit
		select {
		case <-ent.done:
			e.stats.Hits++
			e.cfg.Obs.Add(obs.CtrEngineHits, 1)
		default:
			kind = runDedup
			e.stats.Dedups++
			e.cfg.Obs.Add(obs.CtrEngineDedups, 1)
		}
		e.mu.Unlock()
		<-ent.done
		return ent.res, kind
	}
	ent := &entry{done: make(chan struct{})}
	e.cache[k] = ent
	e.stats.Misses++
	e.cfg.Obs.Add(obs.CtrEngineMisses, 1)
	e.mu.Unlock()
	ent.res = e.execShared(s)
	close(ent.done)
	return ent.res, runMiss
}

// execShared runs an untimed body under the read side of the lane:
// untimed runs overlap each other but never a timed run.
func (e *Engine) execShared(s RunSpec) Result {
	e.lane.RLock()
	defer e.lane.RUnlock()
	if e.hookStart != nil {
		e.hookStart(s)
	}
	res := e.execObserved(s)
	if e.hookEnd != nil {
		e.hookEnd(s)
	}
	return res
}

// execObserved runs one body, threading self-observability: with the
// master recorder enabled the body gets a fresh per-run recorder (keeping
// each Report's snapshot run-local, hence byte-identical no matter which
// worker ran it), the execution is timed under an engine/<mode> span on
// the master, and the run's snapshot is merged in afterwards. Merging is
// pure addition, so the aggregate is independent of completion order.
func (e *Engine) execObserved(s RunSpec) Result {
	master := e.cfg.Obs
	if !master.Enabled() {
		return runDetached(s, nil)
	}
	runRec := obs.New()
	sp := master.Root().Child("engine").Child(s.Mode.String()).Start()
	res := runDetached(s, runRec)
	sp.End()
	master.Merge(runRec.Snapshot())
	return res
}

// execTimed runs a wall-clock-sensitive body alone: the write side of
// the lane waits out every in-flight untimed run and holds back new ones
// (and other timed runs) until the measurement finishes.
func (e *Engine) execTimed(s RunSpec) Result {
	e.lane.Lock()
	defer e.lane.Unlock()
	if e.hookStart != nil {
		e.hookStart(s)
	}
	res := e.execObserved(s)
	if e.hookEnd != nil {
		e.hookEnd(s)
	}
	return res
}
