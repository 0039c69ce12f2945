package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"drgpum/internal/advisor"
	"drgpum/internal/core"
	"drgpum/internal/depgraph"
	"drgpum/internal/gpu"
	"drgpum/internal/intraobj"
	"drgpum/internal/objlevel"
	"drgpum/internal/pattern"
	"drgpum/internal/peak"
	"drgpum/internal/pool"
	"drgpum/internal/trace"
	"drgpum/internal/workloads"

	// Registers the GUI and HTML exporters, so Formats lists every format.
	_ "drgpum/internal/gui"
)

// countingWriter is the export destination: it keeps only the byte count,
// so export time is the exporter's own.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// exportFormats lists the registered export formats a report supports:
// every one, except the saved-profile form for a streamed trace, which
// window retirement has made unsaveable by design.
func exportFormats(streamed bool) []core.Format {
	var out []core.Format
	for _, f := range core.Formats() {
		if streamed && f == core.FormatProfile {
			continue
		}
		out = append(out, f)
	}
	return out
}

// liveHeap collects garbage and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// profiled is the measurement of one profiled program run.
type profiled struct {
	rep *core.Report
	// collect is attach through the last API, snapshots excluded; report
	// is Finish through the last export byte.
	collect, report time.Duration
	finish          time.Duration
	// snapshots are the latencies of the Snapshot calls made during the
	// run; paused is the time collection stood still for them, garbage
	// collection around them included.
	snapshots []time.Duration
	paused    time.Duration
	// exportTime and exportBytes are indexed like formats.
	formats     []core.Format
	exportTime  []time.Duration
	exportBytes []int64
	// heap is the live heap after GC at the end of collection.
	heap uint64
}

// latency is the user-visible time of the run: attach through the last
// report byte, snapshots and the untimed heap probe excluded.
func (p *profiled) latency() time.Duration { return p.collect + p.report }

// runCtx places a run's spans: its parent span, group and round.
type runCtx struct {
	tr     *tracer
	parent int
	group  int
	round  int
}

func (c runCtx) begin(name string) int { return c.tr.begin(name, c.parent, c.group, c.round) }

// under returns the context for the children of span id.
func (c runCtx) under(id int) runCtx { c.parent = id; return c }

// profileRequest describes one profiled run.
type profileRequest struct {
	w    *workloads.Workload
	spec gpu.DeviceSpec
	cfg  core.Config
	// name prefixes the run's span names ("object", "intra", ...).
	name string
	// host, when set, wraps the profiler handed to the workload (hook
	// capture, periodic snapshots).
	host func(p *core.Profiler, rc runCtx, out *profiled) workloads.Host
	// capture, when set, is added as a device hook after Attach.
	capture *capture
}

// profileRun profiles one program: a fresh device, Attach, the workload,
// Finish, then an export in every supported format. Garbage collection
// runs outside the timed regions.
func profileRun(req profileRequest, rc runCtx) (*profiled, error) {
	out := &profiled{}
	dev := gpu.NewDevice(req.spec)
	runtime.GC()

	sp := rc.begin(req.name + ".collect")
	start := time.Now()
	p := core.Attach(dev, req.cfg)
	if req.capture != nil {
		dev.AddHook(req.capture)
	}
	var host workloads.Host = p
	if req.host != nil {
		host = req.host(p, rc.under(sp), out)
	}
	err := req.w.Run(dev, host, workloads.VariantNaive)
	out.collect = time.Since(start) - out.paused
	rc.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", req.w.Name, req.name, err)
	}

	out.heap = liveHeap()

	start = time.Now()
	sp = rc.begin(req.name + ".finish")
	rep := p.Finish()
	rc.tr.end(sp)
	out.finish = time.Since(start)
	out.rep = rep
	out.formats = exportFormats(rep.Trace.Streamed)
	out.exportTime = make([]time.Duration, len(out.formats))
	out.exportBytes = make([]int64, len(out.formats))
	for i, f := range out.formats {
		var cw countingWriter
		t := time.Now()
		sp := rc.begin("export." + f.String())
		if err := rep.Export(&cw, f); err != nil {
			return nil, fmt.Errorf("%s %s: export %s: %w", req.w.Name, req.name, f, err)
		}
		rc.tr.end(sp)
		out.exportTime[i] = time.Since(t)
		out.exportBytes[i] = cw.n
	}
	out.report = time.Since(start)
	return out, nil
}

// nativeRun executes a program uninstrumented and returns its wall time and
// simulated cycles.
func nativeRun(w *workloads.Workload, spec gpu.DeviceSpec, rc runCtx) (time.Duration, uint64, error) {
	dev := gpu.NewDevice(spec)
	runtime.GC()
	sp := rc.begin("native")
	start := time.Now()
	err := w.Run(dev, workloads.NopHost(), workloads.VariantNaive)
	wall := time.Since(start)
	rc.tr.end(sp)
	if err != nil {
		return 0, 0, fmt.Errorf("%s native: %w", w.Name, err)
	}
	return wall, dev.Elapsed(), nil
}

// table1Config is the paper's Table 1 intra-object configuration: the
// program's kernel whitelist, every launch instrumented.
func table1Config(w *workloads.Workload) core.Config {
	cfg := core.IntraObjectConfig()
	cfg.KernelWhitelist = w.IntraKernels
	cfg.SamplingPeriod = 1
	return cfg
}

// workCounts are the deterministic work counters of one profiled run.
// Each is a pure function of the program and the configuration, so the
// same inputs must reproduce them exactly.
type workCounts struct {
	APIs, Launches, Objects, Findings  uint64
	Accesses, Transactions, Ideal      uint64
	L1Hits, L2Hits, ModeledCycles      uint64
	HostMaps, SimCycles, ExportedBytes uint64
}

func countsOf(pr *profiled) workCounts {
	rep := pr.rep
	c := workCounts{
		Objects:   uint64(len(rep.Trace.Objects)),
		Findings:  uint64(len(rep.Findings)),
		HostMaps:  uint64(rep.ModeStats.HostKernels),
		SimCycles: rep.Elapsed,
	}
	for _, a := range rep.Trace.APIs {
		if a == nil {
			continue
		}
		c.APIs++
		if a.Rec.Kind == gpu.APIKernel {
			c.Launches++
		}
	}
	for _, o := range rep.Trace.Objects {
		c.Accesses += o.Cost.Accesses
		c.Transactions += o.Cost.Transactions
		c.Ideal += o.Cost.IdealTransactions
		c.L1Hits += o.Cost.L1Hits
		c.L2Hits += o.Cost.L2Hits
		c.ModeledCycles += o.Cost.ModeledCycles
	}
	for _, b := range pr.exportBytes {
		c.ExportedBytes += uint64(b)
	}
	return c
}

// capture is a device hook that records the hook stream of one run, plus
// the annotations and pool segments the workload reports through its
// host, so the stream can be replayed into fresh ingest layers.
type capture struct {
	events   []captured
	accesses []gpu.MemAccess
}

type capturedKind uint8

const (
	capAPI capturedKind = iota
	capBatch
	capAnnotate
	capSegment
)

type captured struct {
	kind   capturedKind
	rec    *gpu.APIRecord
	lo, hi int // accesses[lo:hi] of a batch
	ptr    gpu.DevicePtr
	label  string
	elem   uint32
}

var _ gpu.Hook = (*capture)(nil)

func (c *capture) OnAPI(rec *gpu.APIRecord) {
	c.events = append(c.events, captured{kind: capAPI, rec: rec})
}

func (c *capture) OnAccessBatch(rec *gpu.APIRecord, batch []gpu.MemAccess) {
	lo := len(c.accesses)
	c.accesses = append(c.accesses, batch...)
	c.events = append(c.events, captured{kind: capBatch, rec: rec, lo: lo, hi: len(c.accesses)})
}

// apis counts the captured API records.
func (c *capture) apis() int {
	n := 0
	for _, e := range c.events {
		if e.kind == capAPI {
			n++
		}
	}
	return n
}

// captureHost forwards the workload's host calls to the profiler and
// records them in the capture.
type captureHost struct {
	p *core.Profiler
	c *capture
}

func (h captureHost) Annotate(ptr gpu.DevicePtr, label string, elemSize uint32) bool {
	h.c.events = append(h.c.events, captured{kind: capAnnotate, ptr: ptr, label: label, elem: elemSize})
	return h.p.Annotate(ptr, label, elemSize)
}

func (h captureHost) AttachPool(pl pool.Observable) {
	pl.Register(func(ev pool.Event) {
		if ev.Kind == pool.EventSegment {
			h.c.events = append(h.c.events, captured{kind: capSegment, ptr: ev.Ptr})
		}
	})
	h.p.AttachPool(pl)
}

// captureRun profiles a program once with its hook stream captured.
func captureRun(w *workloads.Workload, spec gpu.DeviceSpec, cfg core.Config) (*capture, error) {
	c := &capture{}
	req := profileRequest{
		w: w, spec: spec, cfg: cfg, name: "capture", capture: c,
		host: func(p *core.Profiler, _ runCtx, _ *profiled) workloads.Host { return captureHost{p, c} },
	}
	if _, err := profileRun(req, runCtx{}); err != nil {
		return nil, err
	}
	return c, nil
}

// replay feeds a captured stream into a fresh trace collector through its
// public hook entry points, with a fresh intra-object recorder as its
// sink when withRecorder is set.
func replay(c *capture, capacity uint64, withRecorder bool) (*trace.Collector, *intraobj.Recorder) {
	col := trace.NewCollector()
	var rec *intraobj.Recorder
	var live uint64
	sizes := make(map[gpu.DevicePtr]uint64)
	if withRecorder {
		rec = intraobj.NewRecorder(capacity)
		rec.LiveBytes = func() uint64 { return live }
		col.SetSink(rec)
	}
	for _, e := range c.events {
		switch e.kind {
		case capAPI:
			if !e.rec.Custom {
				switch e.rec.Kind {
				case gpu.APIMalloc:
					sizes[e.rec.Ptr] = e.rec.Size
					live += e.rec.Size
				case gpu.APIFree:
					live -= sizes[e.rec.Ptr]
					delete(sizes, e.rec.Ptr)
				}
			}
			col.OnAPI(e.rec)
		case capBatch:
			col.OnAccessBatch(e.rec, c.accesses[e.lo:e.hi])
		case capAnnotate:
			col.Annotate(e.ptr, e.label, e.elem)
		case capSegment:
			col.MarkPoolSegment(e.ptr)
		}
	}
	return col, rec
}

// probeLayers times the ingest and analysis layers on one captured
// stream, calling each layer's public functions from outside, one span
// per call under rc. It replays the capture twice, interleaved: into a
// collector alone, then into a collector feeding a recorder (the
// difference is the recorder's ingest time). Then it runs every analysis
// stage on the replayed trace and renders rep as JSON. The replayed
// stages must find the profiler's findings, the cost model's own left
// out: an oracle on the replay itself.
func probeLayers(o *outcome, what string, c *capture, capacity uint64, rep *core.Report, rc runCtx) error {
	timed := func(name string, fn func()) {
		runtime.GC()
		sp := rc.begin(name)
		fn()
		rc.tr.end(sp)
	}
	timed("replay.collector", func() { replay(c, capacity, false) })
	var col *trace.Collector
	var rec *intraobj.Recorder
	timed("replay.ingest", func() { col, rec = replay(c, capacity, true) })
	t := col.Trace()
	var intra, obj []pattern.Finding
	timed("intraobj.detect", func() { intra = rec.Detect(intraobj.DefaultConfig()) })
	timed("depgraph.annotate", func() { depgraph.Annotate(t) })
	timed("peak.analyze", func() { peak.Analyze(t, 2) })
	timed("objlevel.detect", func() { obj = objlevel.Detect(t, objlevel.DefaultConfig()) })
	findings := append(obj, intra...)
	timed("advisor.marginal", func() { advisor.MarginalSavings(t, findings) })
	timed("advisor.advise", func() { advisor.Advise(t, findings) })
	var err error
	timed("export.json", func() { _, err = json.Marshal(rep) })
	if err != nil {
		return fmt.Errorf("%s: rendering the report as JSON: %w", what, err)
	}
	want := nonCostFindings(rep)
	o.attempted++
	if len(findings) != want {
		o.fail("%s: replayed stages found %d findings, the profiler %d", what, len(findings), want)
	}
	return nil
}

// nonCostFindings counts a report's findings other than the cost model's
// uncoalesced-access ones: the set the replayed stages must reproduce.
func nonCostFindings(rep *core.Report) int {
	n := 0
	for _, f := range rep.Findings {
		if f.Pattern != pattern.UncoalescedAccess {
			n++
		}
	}
	return n
}
