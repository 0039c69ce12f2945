package core

import (
	"sort"

	"drgpum/internal/costmodel"
	"drgpum/internal/pattern"
	"drgpum/internal/trace"
)

// detectUncoalesced scans the per-object cost aggregates for objects whose
// kernel traffic issues substantially more memory transactions than the
// coalesced ideal (DESIGN.md §4.9). The aggregates were accumulated at
// OnAPI arrival with commutative sums, so the scan sees identical values in
// every profiling mode, and objects are visited in ID order, so the finding
// list is deterministic.
func detectUncoalesced(t *trace.Trace, spec costmodel.Spec, cfg CostModelConfig) []pattern.Finding {
	minWarps := uint64(cfg.MinWarps)
	if cfg.MinWarps <= 0 {
		minWarps = DefaultUCMinWarps
	}
	ratio := cfg.ExcessRatio
	if ratio <= 0 {
		ratio = DefaultUCExcessRatio
	}
	var out []pattern.Finding
	for _, o := range t.Objects {
		if o.PoolSegment {
			continue
		}
		c := o.Cost
		if c.Warps < minWarps || c.IdealTransactions == 0 {
			continue
		}
		if float64(c.Transactions) < ratio*float64(c.IdealTransactions) {
			continue
		}
		excess := c.ExcessTransactions()
		if excess == 0 {
			continue
		}
		out = append(out, pattern.Finding{
			Pattern:  pattern.UncoalescedAccess,
			Object:   o.ID,
			AtKernel: dominantKernel(o.CostByKernel),
			// Each excess transaction moves one sector the coalesced
			// pattern would not have touched.
			WastedBytes:   excess * uint64(spec.SectorBytes),
			ModeledCycles: c.ModeledCycles,
			// A coalesced rewrite eliminates the excess transactions; the
			// worst case prices each at a DRAM round trip, but scale by the
			// observed hierarchy mix so cache-resident waste ranks lower.
			CyclesSaved: excess * avgTransactionCycles(c, spec),
		})
	}
	return out
}

// dominantKernel picks the kernel contributing the most excess transactions
// (ties broken by name order for determinism).
func dominantKernel(byKernel map[string]costmodel.ObjectCost) string {
	names := make([]string, 0, len(byKernel))
	for k := range byKernel {
		names = append(names, k)
	}
	sort.Strings(names)
	best, bestExcess := "", uint64(0)
	for _, k := range names {
		if e := byKernel[k].ExcessTransactions(); best == "" || e > bestExcess {
			best, bestExcess = k, e
		}
	}
	return best
}

// avgTransactionCycles is the observed mean latency of the object's memory
// transactions, clamped to at least the L1 hit cost.
func avgTransactionCycles(c costmodel.ObjectCost, spec costmodel.Spec) uint64 {
	if c.Transactions == 0 {
		return spec.DRAMCycles
	}
	avg := c.ModeledCycles / c.Transactions
	if avg < spec.L1HitCycles {
		avg = spec.L1HitCycles
	}
	return avg
}

// attachCycles decorates a finding with the cost model's cycle estimates
// (DESIGN.md §4.9). ModeledCycles is what the object's kernel traffic
// costs today; CyclesSaved is the closed-form estimate of the benefit of
// applying the finding's suggestion:
//
//   - byte-movement patterns (dead write, early allocation, late
//     deallocation, temporary idleness, memory leak) save the DMA cycles of
//     not staging/holding the wasted bytes, priced at the copy engine's
//     bytes-per-cycle rate;
//   - allocation-call patterns (redundant and unused allocation) save a
//     device allocation and deallocation call;
//   - footprint patterns (overallocation, structured access) additionally
//     recover TLB reach: when the object exceeds it, each dropped page
//     saves a TLB miss walk;
//   - non-uniform access frequency scales the object's modeled traffic
//     cost by the variation coefficient (hot slices pinned in faster
//     memory);
//   - uncoalesced access was priced by its detector and is left as is.
//
// Every estimate is clamped to at least one cycle so ranked advice never
// shows a detected inefficiency as free (the Table 1 acceptance checks
// rely on this).
func attachCycles(t *trace.Trace, spec costmodel.Spec, f *pattern.Finding) {
	o := t.Object(f.Object)
	if f.Pattern != pattern.UncoalescedAccess {
		f.ModeledCycles = o.Cost.ModeledCycles
	}
	bw := spec.CopyBytesPerCycle
	if bw == 0 {
		bw = 1
	}
	var saved uint64
	switch f.Pattern {
	case pattern.DeadWrite, pattern.EarlyAllocation, pattern.LateDeallocation,
		pattern.TemporaryIdleness, pattern.MemoryLeak:
		saved = f.WastedBytes / bw
	case pattern.RedundantAllocation, pattern.UnusedAllocation:
		saved = spec.MallocCycles + spec.FreeCycles
	case pattern.Overallocation, pattern.StructuredAccess:
		saved = f.WastedBytes / bw
		if o.Size > spec.TLBReach() {
			droppedPages := spec.Pages(f.WastedBytes)
			saved += droppedPages * spec.TLBMissCycles
		}
	case pattern.NonUniformAccessFrequency:
		pct := f.VariationPct
		if pct > 100 {
			pct = 100
		}
		// At most a quarter of the traffic cost: pinning hot slices
		// accelerates them, it does not eliminate the accesses.
		saved = o.Cost.ModeledCycles * uint64(pct) / 400
	case pattern.UncoalescedAccess:
		return // priced at detection
	}
	if saved == 0 {
		saved = 1
	}
	f.CyclesSaved = saved
}

// severityCycles ranks findings when the cost model is enabled: primarily
// by the modeled cycles a fix recovers, doubled for objects on a reported
// memory peak, and boosted by the advisor's marginal peak savings so
// footprint fixes that actually move the peak still outrank minor traffic
// trims (bytes are scaled into cycle units via a nominal copy rate).
func severityCycles(f *pattern.Finding) float64 {
	s := float64(f.CyclesSaved)
	if f.OnPeak {
		s *= 2
	}
	s += float64(f.PeakSavingsBytes) / 8
	return s
}

// classify buckets a finding into the three-level severity scale every
// tool's JSON schema shares. Leaks are defects; findings with substantial
// modeled savings or peak involvement are warnings; the rest is advisory.
func classify(f *pattern.Finding) pattern.SeverityClass {
	switch {
	case f.Pattern == pattern.MemoryLeak:
		return pattern.SeverityError
	case f.OnPeak || f.PeakSavingsBytes > 0:
		return pattern.SeverityWarning
	case f.CyclesSaved >= 10_000 || f.WastedBytes >= 64<<10:
		return pattern.SeverityWarning
	default:
		return pattern.SeverityInfo
	}
}

// confidence estimates how certain the profiler is that acting on the
// finding helps, per pattern class: lifetime patterns are read directly
// off the trace (certain), intra-object patterns may be sampled, and
// cost-model patterns rest on modeled rather than measured latencies.
func confidence(p pattern.Pattern) float64 {
	switch p {
	case pattern.UnusedAllocation, pattern.MemoryLeak, pattern.DeadWrite:
		return 1.0
	case pattern.EarlyAllocation, pattern.LateDeallocation,
		pattern.RedundantAllocation, pattern.TemporaryIdleness:
		return 0.9
	case pattern.Overallocation, pattern.StructuredAccess,
		pattern.NonUniformAccessFrequency:
		return 0.8
	case pattern.UncoalescedAccess:
		return 0.7
	default:
		return 0.5
	}
}
