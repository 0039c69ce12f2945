package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"drgpum/internal/core"
	"drgpum/internal/gpu"
	"drgpum/internal/obs"
	"drgpum/internal/pattern"
	"drgpum/internal/workloads"
)

// streamParams sizes the long-stream workload.
type streamParams struct {
	epochs        int // kernel epochs of the generated program
	snapshotEvery int // epochs between Snapshot calls
	setups        int // set-ups timed; setup_s is their median
	minRounds     int // the least number of measured rounds
}

func defaultStreamParams() streamParams {
	return streamParams{epochs: 2400, snapshotEvery: 80, setups: 3, minRounds: 3}
}

// The generated program's fixed shapes. The seed varies sizes, offsets and
// which epochs allocate, never the structure, so every seed does the same
// amount of work to within a few percent.
const (
	streamWeightElems  = 16 << 10 // f32 elements of the persistent weights
	streamGradElems    = 1 << 10  // f32 elements of the persistent gradients
	streamBatchMin     = 64       // f32 elements of one epoch's input batch
	streamBatchMax     = 256
	streamScratchEvery = 8 // one epoch in this many allocates a scratch buffer
	streamScratchMin   = 1 << 10
	streamScratchMax   = 8 << 10
	streamSparseElems  = 256 << 10 // the over-allocated object
	streamSparseTouch  = 64        // of which each epoch reads the first few
	streamSkewElems    = 4 << 10   // the non-uniformly read object
	streamSkewHot      = 64        // leading elements read streamSkewReps times
	streamSkewReps     = 64
	streamSmallBytes   = 4 << 10
)

// planted is one inefficiency the generator puts on a named object. Each
// sits far past its detector's threshold, so a report that misses it is
// wrong, not borderline.
type planted struct {
	object  string
	pattern pattern.Pattern
}

// streamEpoch is one generated epoch.
type streamEpoch struct {
	batch   int  // f32 elements copied in and read by the kernel
	wOff    int  // offset of the kernel's window into the weights
	scratch int  // bytes of the epoch's temporary buffer (0: none)
	zero    bool // the temporary is memset rather than copied into
}

// streamProgram is one generated training-loop program.
type streamProgram struct {
	epochs  []streamEpoch
	unused  int // bytes of the never-touched object
	payload []byte
	planted []planted
}

// epochHook is implemented by hosts that want to act after every epoch.
type epochHook interface{ endEpoch(e int) }

// generateStream builds the program for a seed.
func generateStream(seed uint64, epochs int) *streamProgram {
	r := newRNG(seed)
	p := &streamProgram{
		epochs: make([]streamEpoch, epochs),
		unused: 256 * r.between(16, 64),
	}
	phase := r.intn(streamScratchEvery)
	for e := range p.epochs {
		ep := &p.epochs[e]
		ep.batch = r.between(streamBatchMin, streamBatchMax)
		ep.wOff = r.intn(streamWeightElems)
		// Scratch epochs are never adjacent, so no persistent operand idles
		// across four APIs between two consecutive kernels.
		if e%streamScratchEvery == phase {
			ep.scratch = 256 * r.between(streamScratchMin/256, streamScratchMax/256)
			ep.zero = r.chance(50)
		}
	}
	p.payload = make([]byte, streamScratchMax)
	for i := range p.payload {
		p.payload[i] = byte(r.next())
	}
	p.planted = []planted{
		{"planted/unused", pattern.UnusedAllocation},
		{"planted/leak", pattern.MemoryLeak},
		{"planted/early", pattern.EarlyAllocation},
		{"planted/late", pattern.LateDeallocation},
		{"planted/deadwrite", pattern.DeadWrite},
		{"planted/idle", pattern.TemporaryIdleness},
		{"planted/sparse", pattern.Overallocation},
		{"planted/skewed", pattern.NonUniformAccessFrequency},
	}
	return p
}

// workload wraps the program as a registry-style workload, so it runs
// through the same Workload.Run entry point as the paper's programs.
func (p *streamProgram) workload() *workloads.Workload {
	return &workloads.Workload{Name: "generated/long-stream", Domain: "Generated training loop", Run: p.run}
}

// run executes the program: a set-up batch; then per epoch a seeded-size
// copy into the input buffer, a gradient memset and one small kernel, with
// a seeded-size temporary allocated, filled and freed around the kernel
// every few epochs; then teardown.
func (p *streamProgram) run(dev *gpu.Device, host workloads.Host, _ workloads.Variant) error {
	r := &streamRunner{dev: dev, host: host}
	hook, _ := host.(epochHook)
	small := p.payload[:streamSmallBytes]
	last := len(p.epochs) - 1

	weights := r.malloc("weights", 4*streamWeightElems)
	grads := r.malloc("grads", 4*streamGradElems)
	input := r.malloc("input", 4*streamBatchMax)
	unused := r.malloc("planted/unused", uint64(p.unused))
	leak := r.malloc("planted/leak", streamSmallBytes)
	early := r.malloc("planted/early", streamSmallBytes)
	late := r.malloc("planted/late", streamSmallBytes)
	dead := r.malloc("planted/deadwrite", streamSmallBytes)
	idle := r.malloc("planted/idle", streamSmallBytes)
	sparse := r.malloc("planted/sparse", 4*streamSparseElems)
	skewed := r.malloc("planted/skewed", 4*streamSkewElems)
	r.h2d(weights, make([]byte, 4*streamWeightElems))
	r.h2d(leak, small)
	r.h2d(late, small)
	r.memset(dead, 0, streamSmallBytes)
	r.h2d(dead, small) // overwrites the memset unread: a dead write
	r.h2d(idle, small)
	r.h2d(skewed, make([]byte, 4*streamSkewElems))
	r.memset(sparse, 0, 4*streamSparseElems)

	for e, ep := range p.epochs {
		if r.err != nil {
			break
		}
		var scratch gpu.DevicePtr
		if ep.scratch > 0 {
			scratch = r.malloc("scratch", uint64(ep.scratch))
			if ep.zero {
				r.memset(scratch, 0, uint64(ep.scratch))
			} else {
				r.h2d(scratch, p.payload[:ep.scratch])
			}
		}
		r.h2d(input, p.payload[:4*ep.batch])
		r.memset(grads, 0, 4*streamGradElems)
		if e == len(p.epochs)/2 {
			r.h2d(early, small) // first touch, half a run after allocation
		}
		// Extra operands of a few epochs carry the planted patterns.
		var extra gpu.DevicePtr
		switch e {
		case 0:
			extra = leak
		case 1:
			extra = late
		case 2:
			extra = dead
		case 5, last - 5:
			extra = idle
		}
		n, wOff, skew, scratchBytes := ep.batch, ep.wOff, e == 3, ep.scratch
		r.launch("train_step", func(ctx *gpu.ExecContext) {
			for i := 0; i < n; i++ {
				a := ctx.LoadF32(input + gpu.DevicePtr(4*i))
				w := ctx.LoadF32(weights + gpu.DevicePtr(4*((wOff+i)%streamWeightElems)))
				g := grads + gpu.DevicePtr(4*(i%streamGradElems))
				ctx.StoreF32(g, ctx.LoadF32(g)+a*w)
			}
			for i := 0; i < streamSparseTouch; i++ {
				ctx.LoadF32(sparse + gpu.DevicePtr(4*i))
			}
			for i := 0; i < scratchBytes/4; i++ {
				ctx.LoadF32(scratch + gpu.DevicePtr(4*i))
			}
			if extra != 0 {
				ctx.LoadF32(extra)
			}
			if skew {
				for i := 0; i < streamSkewElems; i++ {
					reps := 1
					if i < streamSkewHot {
						reps = streamSkewReps
					}
					for k := 0; k < reps; k++ {
						ctx.LoadF32(skewed + gpu.DevicePtr(4*i))
					}
				}
			}
			ctx.ComputeF32(uint64(2 * n))
		})
		if scratch != 0 {
			r.free(scratch)
		}
		if e == 2 {
			r.free(dead)
		}
		if hook != nil {
			hook.endEpoch(e)
		}
	}

	r.free(weights)
	r.free(grads)
	r.free(input)
	r.free(unused)
	r.free(early)
	r.free(late)
	r.free(idle)
	r.free(sparse)
	r.free(skewed)
	// planted/leak is never freed.
	return r.err
}

// streamRunner keeps the first device error, so the program body reads
// like the CUDA loop it models.
type streamRunner struct {
	dev  *gpu.Device
	host workloads.Host
	err  error
}

func (r *streamRunner) malloc(label string, size uint64) gpu.DevicePtr {
	if r.err != nil {
		return 0
	}
	ptr, err := r.dev.Malloc(size)
	if err != nil {
		r.err = fmt.Errorf("malloc %s: %w", label, err)
		return 0
	}
	r.host.Annotate(ptr, label, 4)
	return ptr
}

func (r *streamRunner) free(ptr gpu.DevicePtr) {
	if r.err == nil {
		r.err = r.dev.Free(ptr)
	}
}

func (r *streamRunner) h2d(dst gpu.DevicePtr, src []byte) {
	if r.err == nil {
		r.err = r.dev.MemcpyHtoD(dst, src, nil)
	}
}

func (r *streamRunner) memset(ptr gpu.DevicePtr, v byte, n uint64) {
	if r.err == nil {
		r.err = r.dev.Memset(ptr, v, n, nil)
	}
}

func (r *streamRunner) launch(name string, body func(ctx *gpu.ExecContext)) {
	if r.err == nil {
		r.err = r.dev.LaunchFunc(nil, name, gpu.Dim1(1), gpu.Dim1(64), body)
	}
}

// snapshotHost takes a Snapshot every few epochs and times it.
type snapshotHost struct {
	*core.Profiler
	every int
	rc    runCtx
	out   *profiled
}

func (h *snapshotHost) endEpoch(e int) {
	if (e+1)%h.every != 0 {
		return
	}
	start := time.Now()
	runtime.GC()
	sp := h.rc.begin("snapshot")
	t := time.Now()
	h.Snapshot()
	h.out.snapshots = append(h.out.snapshots, time.Since(t))
	h.rc.tr.end(sp)
	// The snapshot's garbage is collected here, outside both timed
	// regions, rather than by the collection that follows.
	runtime.GC()
	h.out.paused += time.Since(start)
}

// streamConfig is the long-stream profiling configuration: intra-object,
// every kernel instrumented, streaming analysis.
func streamConfig() core.Config {
	cfg := core.IntraObjectConfig()
	cfg.Streaming = core.StreamingConfig{Enabled: true}
	return cfg
}

// streamRound is what one round measured.
type streamRound struct {
	pr        *profiled
	traced    bool
	native    time.Duration
	costDelta time.Duration
	counts    map[string]uint64
}

// runLongStream profiles a seeded, generated, API-heavy program with
// streaming analysis, taking periodic snapshots, then finishes and
// exports. Each round is one native run and one profiled run.
func runLongStream(env *runEnv, prm streamParams) (*outcome, error) {
	o := newOutcome()
	spec := gpu.SpecRTX3090()
	tr := newTracer(false, env.t0)
	var prog *streamProgram
	var w *workloads.Workload
	var cycles uint64
	var first map[string]uint64
	var capt *capture

	profile := func(cfg core.Config, name string, rc runCtx) (*profiled, error) {
		if env.traced {
			cfg.Obs = obs.New()
		}
		req := profileRequest{w: w, spec: spec, cfg: cfg, name: name,
			host: func(p *core.Profiler, rc runCtx, out *profiled) workloads.Host {
				return &snapshotHost{Profiler: p, every: prm.snapshotEvery, rc: rc, out: out}
			}}
		return profileRun(req, rc)
	}

	oneRound := func(round int, probes bool) (*streamRound, error) {
		root := tr.begin("round", -1, round, round)
		rc := runCtx{tr: tr, parent: root, group: round, round: round}
		// The native run feeds only the per-layer metrics; set-up's native
		// run is the simulated-time reference.
		native, nc := time.Duration(0), cycles
		if probes {
			var err error
			if native, nc, err = nativeRun(w, spec, rc); err != nil {
				return nil, err
			}
		}
		pr, err := profile(streamConfig(), "stream", rc)
		if err != nil {
			return nil, err
		}
		o.attempted += 1 + len(pr.snapshots)
		sr := &streamRound{pr: pr, traced: probes, native: native, counts: make(map[string]uint64)}
		addCounts(sr.counts, "", countsOf(pr))
		sr.counts["snapshots"] = uint64(len(pr.snapshots))
		if snap := pr.rep.Obs; snap != nil {
			for _, c := range snap.Counters {
				switch c.Name {
				case obs.NamedWindowsClosed:
					sr.counts["windows_closed"] = c.Value
				case obs.NamedWindowAPIsRetired:
					sr.counts["apis_retired"] = c.Value
				}
			}
		}

		o.check(sameCycles("long-stream native", nc, cycles))
		o.check(sameCycles("long-stream profiled", pr.rep.Elapsed, cycles))
		for _, pl := range prog.planted {
			o.check(hasPattern(pr.rep, pl))
		}
		if first == nil {
			first = sr.counts
		} else {
			o.check(sameCounterMap("long-stream", first, sr.counts))
		}

		if probes {
			off := streamConfig()
			off.CostModel.Disabled = true
			noCost, err := profile(off, "stream.nocost", rc)
			if err != nil {
				return nil, err
			}
			o.attempted++
			sr.costDelta = pr.latency() + sum(pr.snapshots) - noCost.latency() - sum(noCost.snapshots)
			if err := probeLayers(o, "long-stream", capt, spec.MemoryCapacity, pr.rep, rc); err != nil {
				return nil, err
			}
			sr.counts["replay.apis"] = uint64(capt.apis())
			sr.counts["replay.accesses"] = uint64(len(capt.accesses))
		}
		tr.end(root)
		pr.rep = nil // later rounds must not count this report as resident
		return sr, nil
	}

	var setups []float64
	for i := 0; i < prm.setups; i++ {
		t := time.Now()
		prog = generateStream(env.seed, prm.epochs)
		w = prog.workload()
		_, nc, err := nativeRun(w, spec, runCtx{})
		if err != nil {
			return nil, err
		}
		cycles = nc
		if _, err := oneRound(-1, false); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	if env.traced {
		c, err := captureRun(w, spec, streamConfig())
		if err != nil {
			return nil, err
		}
		capt = c
	}

	var rounds []*streamRound
	start := time.Now()
	for round := 0; round < prm.minRounds || !env.elapsed(start); round++ {
		traced := env.traced && round%2 == 0
		tr.on = traced
		sr, err := oneRound(round, traced)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, sr)
	}
	env.logf("long-stream: %d epochs, %d rounds in %.1fs", prm.epochs, len(rounds), time.Since(start).Seconds())

	o.counters = rounds[0].counts
	o.counterUnit = "round (one profiled run of the generated program)"
	o.counterCheck = "every round's counters repeat the set-up round's exactly"
	if !env.traced {
		var all, throughput, reports, heaps []float64
		// Snapshot latency grows with the trace, so the k-th snapshots of
		// all rounds cluster together: latency_ms is the median over
		// positions of each position's median, and the tail is p95, which
		// with 30 snapshots a round lies inside the second-latest position
		// whatever the round count.
		byPos := make([][]float64, len(rounds[0].pr.snapshots))
		for _, sr := range rounds {
			for i, s := range sr.pr.snapshots {
				all = append(all, s.Seconds())
				byPos[i] = append(byPos[i], s.Seconds())
			}
			throughput = append(throughput, float64(prm.epochs)/sr.pr.collect.Seconds())
			reports = append(reports, sr.pr.report.Seconds())
			heaps = append(heaps, float64(sr.pr.heap)/(1<<20))
		}
		var posMedians []float64
		for _, xs := range byPos {
			posMedians = append(posMedians, median(xs))
		}
		o.setE2E(setups, posMedians, percentile(all, 95), throughput, reports, heaps)
		o.notes = append(o.notes, fmt.Sprintf("%d rounds, %d snapshots; %d beyond the p95 tail",
			len(rounds), len(all), len(all)-int(math.Ceil(0.95*float64(len(all))))))
		return o, nil
	}
	o.spans = tr.spans
	streamLayers(o, rounds)
	return o, nil
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// streamLayers derives the per-layer metrics of a traced long-stream run.
func streamLayers(o *outcome, rounds []*streamRound) {
	agg := aggregate(o.spans)
	c := rounds[0].counts
	m := o.metrics
	var intraX, costDelta, tracedWall, plainWall []float64
	for _, sr := range rounds {
		wall := (sr.pr.latency() + sum(sr.pr.snapshots)).Seconds()
		if sr.traced {
			intraX = append(intraX, sr.pr.collect.Seconds()/sr.native.Seconds())
			costDelta = append(costDelta, sr.costDelta.Seconds())
			tracedWall = append(tracedWall, wall)
		} else {
			plainWall = append(plainWall, wall)
		}
	}
	m["gpu.native_s"] = roundMedian(agg, "native")
	m["gpu.accesses"] = float64(c["accesses"])
	m["gpu.ns_per_access"] = perUnit(m["gpu.native_s"], c["accesses"])
	m["gpu.launches"] = float64(c["launches"])
	m["gpu.apis"] = float64(c["apis"])
	m["gpu.sim_cycles"] = float64(c["sim_cycles"])
	m["overhead.object_x"] = 0
	m["overhead.intra_x"] = median(intraX)
	m["costmodel.delta_s"] = median(costDelta)
	costLayer(m, c, "")
	ingestLayers(m, agg, c)
	m["trace.objects"] = float64(c["objects"])
	m["intraobj.host_maps"] = float64(c["host_maps"])
	m["core.finish_s"] = roundMedian(agg, "stream.finish")
	m["core.finish_other_s"] = m["core.finish_s"] - stageTotal(m)
	m["core.snapshot_s"] = roundMedian(agg, "snapshot")
	m["core.findings"] = float64(c["findings"])
	m["core.windows_closed"] = float64(c["windows_closed"])
	m["core.apis_retired"] = float64(c["apis_retired"])
	exportLayers(m, agg)
	m["export.bytes"] = float64(c["export_bytes"])
	noEngine(m)
	m["spans.overhead_pct"] = 100 * (median(tracedWall) - median(plainWall)) / median(plainWall)
	m["spans.count"] = float64(len(o.spans))
}
