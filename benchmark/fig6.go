package main

import (
	"fmt"
	"time"

	"drgpum/internal/core"
	"drgpum/internal/gpu"
	"drgpum/internal/workloads"
)

// fig6Params sizes the fig6 workload.
type fig6Params struct {
	// programs restricts the sweep (tests); empty means every registered
	// program.
	programs []string
	// setups is how many warm-up passes set-up times; setup_s is their
	// median.
	setups int
	// minPasses is the least number of measured passes.
	minPasses int
}

func defaultFig6Params() fig6Params { return fig6Params{setups: 3, minPasses: 5} }

// fig6Program is one program of the sweep and what the run learned of it.
type fig6Program struct {
	w *workloads.Workload
	// object and intra are the counters of the first run; every later run
	// must reproduce them exactly.
	object, intra *workCounts
	cycles        uint64
	// capture is the program's hook stream (traced runs only).
	capture *capture
	// native, objectLat and intraLat are per-pass wall times in seconds;
	// latency is objectLat plus intraLat, and the report times are each
	// level's Finish plus export.
	native, objectLat, intraLat []float64
	latency                     []float64
	objectReport, intraReport   []float64
}

// fig6Pass is what one pass over every program measured.
type fig6Pass struct {
	traced bool
	// wall is native plus both profiled latencies over all programs;
	// profiled leaves native out.
	wall, profiled float64
	maxHeap        uint64
	costDelta      float64
	counts         map[string]uint64
}

// runFig6 is the paper's Figure 6 experiment as a benchmark: every
// registered program, naive variant, on the RTX 3090 spec, each run
// natively, at object level and at intra-object level back to back, in a
// seed-shuffled order per pass.
func runFig6(env *runEnv, prm fig6Params) (*outcome, error) {
	progs, err := fig6Programs(prm.programs)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	spec := gpu.SpecRTX3090()
	tr := newTracer(false, env.t0)
	var latencies []float64
	group := 0

	// onePass runs every program once in the given order and checks every
	// oracle on every run.
	onePass := func(round int, order []int, traced bool) (*fig6Pass, error) {
		ps := &fig6Pass{traced: traced, counts: make(map[string]uint64)}
		for _, i := range order {
			p := progs[i]
			group++
			root := tr.begin("program", -1, group, round)
			rc := runCtx{tr: tr, parent: root, group: group, round: round}
			native, cycles, err := nativeRun(p.w, spec, rc)
			if err != nil {
				return nil, err
			}
			obj, err := profileRun(profileRequest{w: p.w, spec: spec, cfg: core.DefaultConfig(), name: "object"}, rc)
			if err != nil {
				return nil, err
			}
			intra, err := profileRun(profileRequest{w: p.w, spec: spec, cfg: table1Config(p.w), name: "intra"}, rc)
			if err != nil {
				return nil, err
			}
			o.attempted += 3

			fig6Oracles(o, p, cycles, obj, intra)
			ol, il := obj.latency().Seconds(), intra.latency().Seconds()
			p.native = append(p.native, native.Seconds())
			p.objectLat = append(p.objectLat, ol)
			p.intraLat = append(p.intraLat, il)
			p.latency = append(p.latency, ol+il)
			p.objectReport = append(p.objectReport, obj.report.Seconds())
			p.intraReport = append(p.intraReport, intra.report.Seconds())
			latencies = append(latencies, ol+il)
			ps.wall += native.Seconds() + ol + il
			ps.profiled += ol + il
			if intra.heap > ps.maxHeap {
				ps.maxHeap = intra.heap
			}
			addCounts(ps.counts, "object.", countsOf(obj))
			addCounts(ps.counts, "intra.", countsOf(intra))

			if traced {
				if err := fig6Probes(o, p, spec, obj, intra, rc, ps); err != nil {
					return nil, err
				}
			}
			tr.end(root)
		}
		return ps, nil
	}

	identity := make([]int, len(progs))
	for i := range identity {
		identity[i] = i
	}
	var setups []float64
	for i := 0; i < prm.setups; i++ {
		t := time.Now()
		if _, err := onePass(-1, identity, false); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	if env.traced {
		for _, p := range progs {
			c, err := captureRun(p.w, spec, table1Config(p.w))
			if err != nil {
				return nil, err
			}
			p.capture = c
		}
	}
	latencies = nil
	for _, p := range progs {
		p.native, p.objectLat, p.intraLat, p.latency, p.objectReport, p.intraReport = nil, nil, nil, nil, nil, nil
	}

	r := newRNG(env.seed)
	order := append([]int(nil), identity...)
	var passes []*fig6Pass
	start := time.Now()
	for round := 0; round < prm.minPasses || !env.elapsed(start); round++ {
		r.shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		// A traced run alternates traced and untraced passes: the
		// difference between the two is the tracing overhead.
		traced := env.traced && round%2 == 0
		tr.on = traced
		ps, err := onePass(round, order, traced)
		if err != nil {
			return nil, err
		}
		passes = append(passes, ps)
	}
	env.logf("fig6: %d programs, %d passes in %.1fs", len(progs), len(passes), time.Since(start).Seconds())

	o.counters = passes[0].counts
	o.counterUnit = "pass over every program"
	o.counterCheck = "every program's counters repeat exactly in every pass"
	if !env.traced {
		var throughput, heaps, progLat, runReport []float64
		for _, ps := range passes {
			throughput = append(throughput, float64(len(progs))/ps.profiled)
			heaps = append(heaps, float64(ps.maxHeap)/(1<<20))
		}
		// Samples of one program cluster apart from other programs', so a
		// statistic over all samples at a cluster boundary would jump with
		// the pass count. Medians are taken per program first.
		for _, p := range progs {
			progLat = append(progLat, median(p.latency))
			runReport = append(runReport, median(p.objectReport), median(p.intraReport))
		}
		// The tail is p90 of every program-pass sample: with 14 programs
		// it lies inside the second-slowest program's samples whatever the
		// pass count, where the highest percentile with ten samples beyond
		// it would sit on the edge between the two slowest programs.
		o.setE2E(setups, progLat, percentile(latencies, 90), throughput, runReport, heaps)
		o.notes = append(o.notes, fmt.Sprintf("%d passes; latency over %d program medians, tail p90 of %d samples",
			len(passes), len(progLat), len(latencies)))
		return o, nil
	}
	o.spans = tr.spans
	fig6Layers(o, progs, passes)
	return o, nil
}

// fig6Programs resolves the program list.
func fig6Programs(names []string) ([]*fig6Program, error) {
	ws := workloads.All()
	if len(names) > 0 {
		ws = nil
		for _, n := range names {
			w, ok := workloads.ByName(n)
			if !ok {
				return nil, fmt.Errorf("unknown program %q", n)
			}
			ws = append(ws, w)
		}
	}
	out := make([]*fig6Program, len(ws))
	for i, w := range ws {
		out[i] = &fig6Program{w: w}
	}
	return out, nil
}

// fig6Oracles checks one program's triple: Table 1 on both profiled runs,
// simulated time equal to the native run's, and counters equal to the
// program's first run.
func fig6Oracles(o *outcome, p *fig6Program, cycles uint64, obj, intra *profiled) {
	o.check(checkTable1(p.w.Name, obj.rep.PatternSet(), false))
	o.check(checkTable1(p.w.Name, intra.rep.PatternSet(), true))
	o.check(sameCycles(p.w.Name+" object-level", obj.rep.Elapsed, cycles))
	o.check(sameCycles(p.w.Name+" intra-object", intra.rep.Elapsed, cycles))
	oc, ic := countsOf(obj), countsOf(intra)
	if p.object == nil {
		p.object, p.intra, p.cycles = &oc, &ic, cycles
		return
	}
	o.check(sameCounts(p.w.Name+" object-level", *p.object, oc))
	o.check(sameCounts(p.w.Name+" intra-object", *p.intra, ic))
	o.check(sameCycles(p.w.Name+" native", cycles, p.cycles))
}

// fig6Probes runs a traced pass's per-layer probes for one program: the
// cost-model A/B (the default object-level run just made against one
// without the model) and the ingest and analysis layers on the captured
// stream.
func fig6Probes(o *outcome, p *fig6Program, spec gpu.DeviceSpec, obj, intra *profiled, rc runCtx, ps *fig6Pass) error {
	off := core.DefaultConfig()
	off.CostModel.Disabled = true
	noCost, err := profileRun(profileRequest{w: p.w, spec: spec, cfg: off, name: "object.nocost"}, rc)
	if err != nil {
		return err
	}
	o.attempted++
	ps.costDelta += (obj.latency() - noCost.latency()).Seconds()

	if err := probeLayers(o, p.w.Name, p.capture, spec.MemoryCapacity, intra.rep, rc); err != nil {
		return err
	}
	ps.counts["replay.apis"] += uint64(p.capture.apis())
	ps.counts["replay.accesses"] += uint64(len(p.capture.accesses))
	return nil
}

// fig6Layers derives the per-layer metrics of a traced fig6 run.
func fig6Layers(o *outcome, progs []*fig6Program, passes []*fig6Pass) {
	agg := aggregate(o.spans)
	c := passes[0].counts
	m := o.metrics

	var objX, intraX []float64
	for _, p := range progs {
		nat := median(p.native)
		objX = append(objX, median(p.objectLat)/nat)
		intraX = append(intraX, median(p.intraLat)/nat)
	}
	var costDelta, tracedWall, plainWall []float64
	for _, ps := range passes {
		if ps.traced {
			costDelta = append(costDelta, ps.costDelta)
			tracedWall = append(tracedWall, ps.wall)
		} else {
			plainWall = append(plainWall, ps.wall)
		}
	}

	m["gpu.native_s"] = roundMedian(agg, "native")
	m["gpu.accesses"] = float64(c["object.accesses"])
	m["gpu.ns_per_access"] = perUnit(m["gpu.native_s"], c["object.accesses"])
	m["gpu.launches"] = float64(c["object.launches"])
	m["gpu.apis"] = float64(c["object.apis"])
	m["gpu.sim_cycles"] = float64(c["object.sim_cycles"])
	m["overhead.object_x"] = median(objX)
	m["overhead.intra_x"] = median(intraX)
	m["costmodel.delta_s"] = median(costDelta)
	costLayer(m, c, "object.")
	ingestLayers(m, agg, c)
	m["trace.objects"] = float64(c["object.objects"])
	m["intraobj.host_maps"] = float64(c["intra.host_maps"])
	m["core.finish_s"] = roundMedian(agg, "intra.finish")
	m["core.finish_other_s"] = m["core.finish_s"] - stageTotal(m)
	m["core.snapshot_s"] = 0
	m["core.findings"] = float64(c["intra.findings"])
	m["core.windows_closed"] = 0
	m["core.apis_retired"] = 0
	exportLayers(m, agg)
	m["export.bytes"] = float64(c["object.export_bytes"] + c["intra.export_bytes"])
	noEngine(m)
	m["spans.overhead_pct"] = 100 * (median(tracedWall) - median(plainWall)) / median(plainWall)
	m["spans.count"] = float64(len(o.spans))
}
