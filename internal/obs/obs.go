// Package obs is DrGPUM's self-observability layer: phase spans, counters
// and gauges describing what the profiler itself did and where its own time
// went. The evaluation's overhead claims (the paper's Figure 6, Table 4's
// object-level vs intra-object costs) are only as trustworthy as our
// visibility into the profiler's own phases — CUTHERMO makes the same
// argument for profilers generally — so every layer of the pipeline
// (collector ingestion, intra-object finalization, the offline analyzers,
// the memcheck scan, the run engine) reports into a Recorder when one is
// configured.
//
// Design constraints, in priority order:
//
//   - Zero dependencies. obs imports only the standard library, so any
//     internal package (including the bottom of the stack) can report into
//     it without an import cycle.
//   - Near-zero cost when disabled. Instrumented packages cache *Node
//     handles that are nil when no recorder is enabled, so the hot
//     ingestion paths pay one nil check; counter updates behind a *Recorder
//     pay one atomic load (Enabled) and nothing else. Every method is
//     nil-receiver-safe, so call sites carry no conditionals.
//   - Deterministic aggregation. Spans with the same name under the same
//     parent merge into one Node (count + total nanoseconds), and Snapshot
//     sorts children by name, so the span tree is byte-identical no matter
//     how concurrent completions interleave. Wall-clock totals are kept out
//     of the byte-identity sinks (Snapshot.WriteText without wall,
//     Snapshot.ZeroWall), mirroring how the engine's determinism tests zero
//     wall fields.
//
// Recorder methods may be called from inside gpu.Hook callbacks: they never
// touch the device or any pool, so they are re-entry-safe under the
// hookreentry lint contract (pinned by that analyzer's fixtures).
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counter enumerates the fixed counters, in report order. Fixed counters
// are lock-free atomics; use Recorder.AddNamed for dynamic names (for
// example per-pattern finding counts).
type Counter uint8

const (
	// CtrAPIs counts GPU API records ingested by the collector.
	CtrAPIs Counter = iota
	// CtrAccessBatches counts per-instruction access batches delivered to
	// the collector by instrumented kernels.
	CtrAccessBatches
	// CtrAccesses counts individual memory accesses inside those batches.
	CtrAccesses
	// CtrSpillRecords counts coalesced host-mode spill records replayed at
	// intra-object finalization (paper §5.5's host fallback).
	CtrSpillRecords
	// CtrBitmapWords counts 64-bit access-bitmap words touched per
	// finalized intra-object window.
	CtrBitmapWords
	// CtrAllocOps counts device allocator operations (allocs + frees)
	// observed by the profiler.
	CtrAllocOps
	// CtrQuarantineEvict counts spans evicted from the allocator's
	// use-after-free quarantine to stay within budget.
	CtrQuarantineEvict
	// CtrPeakCandidates counts local-maxima candidates the peak miner
	// considered (per analysis pass).
	CtrPeakCandidates
	// CtrEngineRuns..CtrEngineTimed mirror engine.Stats. The split between
	// hits and dedups depends on scheduling timing; their sum is
	// deterministic.
	CtrEngineRuns
	CtrEngineHits
	CtrEngineDedups
	CtrEngineMisses
	CtrEngineTimed

	numCounters = iota
)

// counterNames are the report names, indexed by Counter.
var counterNames = [numCounters]string{
	CtrAPIs:            "apis ingested",
	CtrAccessBatches:   "access batches",
	CtrAccesses:        "accesses ingested",
	CtrSpillRecords:    "host spill records",
	CtrBitmapWords:     "bitmap words touched",
	CtrAllocOps:        "allocator ops",
	CtrQuarantineEvict: "quarantine evictions",
	CtrPeakCandidates:  "peak candidates",
	CtrEngineRuns:      "engine runs",
	CtrEngineHits:      "engine cache hits",
	CtrEngineDedups:    "engine dedups",
	CtrEngineMisses:    "engine misses",
	CtrEngineTimed:     "engine timed runs",
}

// Named counters published by the streaming window manager. They are named
// rather than fixed so the fixed-counter snapshot shape — and every report
// pinned against it — is untouched when streaming is off.
const (
	// NamedWindowsClosed counts kernel-epoch windows closed.
	NamedWindowsClosed = "window/closed"
	// NamedWindowAPIsRetired counts API records retired at window close.
	NamedWindowAPIsRetired = "window/apis-retired"
	// NamedWindowObjectsSealed counts freed objects whose intra-object
	// state was frozen into a compact summary.
	NamedWindowObjectsSealed = "window/objects-sealed"
)

// Named counters published by the profiling server (internal/serve). Like
// the streaming counters they are named, not fixed, so the fixed-counter
// snapshot shape — and every byte-pinned report — is untouched when no
// server is running.
const (
	// NamedServeSessions counts sessions submitted to the server.
	NamedServeSessions = "serve/sessions"
	// NamedServeRuns counts RunSpecs submitted inside those sessions
	// (recorded on the per-session recorder; the server total therefore
	// reflects completed sessions).
	NamedServeRuns = "serve/runs"
	// NamedServeFailed counts sessions that finished in the failed state.
	NamedServeFailed = "serve/sessions-failed"
	// NamedServeEvictLRU counts sessions evicted to hold the store's
	// capacity bound.
	NamedServeEvictLRU = "serve/evict-lru"
	// NamedServeEvictTTL counts sessions retired by the idle-TTL sweep.
	NamedServeEvictTTL = "serve/evict-ttl"
	// NamedServeExports counts report bodies served over HTTP.
	NamedServeExports = "serve/report-exports"
	// NamedServeHTTP counts HTTP requests handled (all endpoints).
	NamedServeHTTP = "serve/http-requests"
)

// counterIndex resolves a report name back to its Counter (used by Merge).
var counterIndex = func() map[string]Counter {
	m := make(map[string]Counter, numCounters)
	for c, name := range counterNames {
		m[name] = Counter(c)
	}
	return m
}()

// String returns the counter's report name.
func (c Counter) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return "unknown"
}

// Recorder accumulates spans and counters. All methods are safe for
// concurrent use and safe on a nil receiver (no-ops), so instrumentation
// never needs a guard at the call site.
type Recorder struct {
	on       atomic.Bool
	counters [numCounters]atomic.Uint64

	namedMu sync.Mutex
	named   map[string]uint64

	root *Node
}

// Nop is a shared, permanently disabled recorder. Packages may instrument
// against Nop unconditionally instead of branching on "is a recorder
// configured"; every call on it is a cheap no-op.
var Nop = &Recorder{}

// New returns an enabled recorder.
func New() *Recorder {
	r := &Recorder{}
	r.root = &Node{rec: r}
	r.on.Store(true)
	return r
}

// Enabled reports whether the recorder accepts data. It is the single
// atomic load guarding every hot-path update.
func (r *Recorder) Enabled() bool { return r != nil && r.on.Load() }

// Disable stops the recorder from accepting counter updates. Cached Node
// handles keep working (span aggregation is harmless); new Root calls
// return nil so instrumentation set up afterwards is free.
func (r *Recorder) Disable() {
	if r != nil {
		r.on.Store(false)
	}
}

// Root returns the span-tree root, or nil when the recorder is nil or
// disabled — so instrumented packages that cache node handles at setup time
// cache nil, and their hot paths reduce to a nil check.
func (r *Recorder) Root() *Node {
	if !r.Enabled() {
		return nil
	}
	return r.root
}

// Add increments a fixed counter.
func (r *Recorder) Add(c Counter, n uint64) {
	if !r.Enabled() || n == 0 {
		return
	}
	r.counters[c].Add(n)
}

// AddNamed increments a dynamically named counter (for example
// "findings/OA"). Named counters are mutex-protected; keep them off hot
// paths.
func (r *Recorder) AddNamed(name string, n uint64) {
	if !r.Enabled() || n == 0 {
		return
	}
	r.namedMu.Lock()
	if r.named == nil {
		r.named = make(map[string]uint64)
	}
	r.named[name] += n
	r.namedMu.Unlock()
}

// Node is one name in the span tree. Repeated spans with the same name
// under the same parent aggregate into the one node (occurrence count plus
// total wall nanoseconds), which is what makes the tree deterministic under
// concurrency: completion order cannot reorder an aggregate.
type Node struct {
	rec   *Recorder
	name  string
	count atomic.Uint64
	nanos atomic.Int64

	mu       sync.Mutex
	children []*Node
	index    map[string]*Node
}

// Child finds or creates the named child. Nil-safe: a nil node yields nil.
func (n *Node) Child(name string) *Node {
	if n == nil {
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if c, ok := n.index[name]; ok {
		return c
	}
	c := &Node{rec: n.rec, name: name}
	if n.index == nil {
		n.index = make(map[string]*Node)
	}
	n.index[name] = c
	n.children = append(n.children, c)
	return c
}

// Start opens a span on the node. Nil-safe: a nil node yields an inert
// span whose End is a no-op without reading the clock.
func (n *Node) Start() Span {
	if n == nil {
		return Span{}
	}
	return Span{node: n, start: time.Now()}
}

// Record adds one completed occurrence with a pre-measured duration.
func (n *Node) Record(d time.Duration) {
	if n == nil {
		return
	}
	n.count.Add(1)
	n.nanos.Add(d.Nanoseconds())
}

// add folds an external aggregate into the node (Merge).
func (n *Node) add(count uint64, nanos int64) {
	n.count.Add(count)
	n.nanos.Add(nanos)
}

// Span is an open span. It is a value; letting one go out of scope without
// End simply records nothing.
type Span struct {
	node  *Node
	start time.Time
}

// End closes the span, folding its wall-clock duration into the node.
func (s Span) End() {
	if s.node == nil {
		return
	}
	s.node.Record(time.Since(s.start))
}
