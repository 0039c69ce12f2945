// Package advisor estimates the memory benefit of applying DrGPUM's
// suggestions before anyone edits code: it replays the data-object timeline
// with every object-level and sizing fix applied —
//
//   - early allocations deferred to the first access,
//   - late deallocations (and leaks of used objects) freed right after the
//     last access,
//   - unused allocations and leaked-never-used objects removed,
//   - temporarily idle objects offloaded for their idle windows, and
//   - overallocated / structured-access objects shrunk to their accessed
//     or per-slice footprint —
//
// and reports the hypothetical peak. The paper's Table 4 is the ground
// truth for this estimate: the repository's integration tests check the
// advisor's predicted reduction against the measured reduction of each
// workload's hand-optimized variant.
package advisor

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"drgpum/internal/pattern"
	"drgpum/internal/trace"
)

// Estimate is the what-if analysis result.
type Estimate struct {
	// OriginalPeak is the data-object peak of the recorded run.
	OriginalPeak uint64
	// EstimatedPeak is the peak after applying every suggestion.
	EstimatedPeak uint64
	// ReductionPct is the predicted peak reduction.
	ReductionPct float64
	// RemovedBytes sums allocations eliminated outright (unused objects).
	RemovedBytes uint64
	// ShrunkBytes sums bytes trimmed from overallocated/structured objects.
	ShrunkBytes uint64
}

// interval is a half-open live window [start, end) in topological time.
type interval struct {
	start, end uint64
}

// Advise computes the estimate from an annotated trace and its findings.
func Advise(t *trace.Trace, findings []pattern.Finding) Estimate {
	var maxTopo uint64
	for _, a := range t.APIs {
		if a.Topo > maxTopo {
			maxTopo = a.Topo
		}
	}
	horizon := maxTopo + 1

	// Index findings per object.
	type objFixes struct {
		early, late, unused, leak bool
		idle                      []pattern.IdleWindow
		newSize                   uint64
		resized                   bool
	}
	fixes := map[trace.ObjectID]*objFixes{}
	fixesOf := func(id trace.ObjectID) *objFixes {
		f := fixes[id]
		if f == nil {
			f = &objFixes{}
			fixes[id] = f
		}
		return f
	}
	for i := range findings {
		f := &findings[i]
		switch f.Pattern {
		case pattern.EarlyAllocation:
			fixesOf(f.Object).early = true
		case pattern.LateDeallocation:
			fixesOf(f.Object).late = true
		case pattern.UnusedAllocation:
			fixesOf(f.Object).unused = true
		case pattern.MemoryLeak:
			fixesOf(f.Object).leak = true
		case pattern.TemporaryIdleness:
			fixesOf(f.Object).idle = append(fixesOf(f.Object).idle, f.Windows...)
		case pattern.Overallocation, pattern.StructuredAccess:
			o := t.Object(f.Object)
			if f.WastedBytes < o.Size {
				fx := fixesOf(f.Object)
				size := o.Size - f.WastedBytes
				// Several sizing findings: keep the strongest shrink.
				if !fx.resized || size < fx.newSize {
					fx.newSize = size
					fx.resized = true
				}
			}
		}
	}

	est := Estimate{}
	type delta struct {
		topo  uint64
		bytes int64
	}
	var origDeltas, newDeltas []delta

	for _, o := range t.Objects {
		if o.PoolSegment {
			continue
		}
		// Original lifetime.
		oStart := t.API(o.AllocAPI).Topo
		oEnd := horizon
		if o.Freed() {
			oEnd = t.API(uint64(o.FreeAPI)).Topo
		}
		if oEnd > oStart {
			origDeltas = append(origDeltas,
				delta{topo: oStart, bytes: int64(o.Size)},
				delta{topo: oEnd, bytes: -int64(o.Size)})
		}

		fx := fixes[o.ID]
		if fx != nil && fx.unused {
			est.RemovedBytes += o.Size
			continue // the allocation is deleted
		}
		size := o.Size
		if fx != nil && fx.resized {
			est.ShrunkBytes += o.Size - fx.newSize
			size = fx.newSize
		}

		start, end := oStart, oEnd
		var idle []pattern.IdleWindow
		if fx != nil {
			if fx.early {
				if fa := o.FirstAccess(); fa != nil {
					start = t.API(fa.API).Topo
				}
			}
			if fx.late || fx.leak {
				if la := o.LastAccess(); la != nil {
					end = t.API(la.API).Topo + 1
				}
			}
			idle = fx.idle
		}
		if end <= start {
			continue
		}

		// Split the live window around offloaded idle gaps.
		intervals := []interval{{start: start, end: end}}
		for _, w := range idle {
			gapStart := t.API(w.FromAPI).Topo + 1
			gapEnd := t.API(w.ToAPI).Topo
			intervals = subtract(intervals, interval{start: gapStart, end: gapEnd})
		}
		for _, iv := range intervals {
			if iv.end <= iv.start {
				continue
			}
			newDeltas = append(newDeltas,
				delta{topo: iv.start, bytes: int64(size)},
				delta{topo: iv.end, bytes: -int64(size)})
		}
	}

	peakOf := func(ds []delta) uint64 {
		sort.Slice(ds, func(i, j int) bool {
			if ds[i].topo != ds[j].topo {
				return ds[i].topo < ds[j].topo
			}
			// Frees before allocations at the same timestamp: a deferred
			// allocation can reuse memory freed at that instant.
			return ds[i].bytes < ds[j].bytes
		})
		var cur int64
		var peakBytes int64
		for _, d := range ds {
			cur += d.bytes
			if cur > peakBytes {
				peakBytes = cur
			}
		}
		return uint64(peakBytes)
	}

	est.OriginalPeak = peakOf(origDeltas)
	est.EstimatedPeak = peakOf(newDeltas)
	if est.OriginalPeak > 0 {
		est.ReductionPct = float64(est.OriginalPeak-est.EstimatedPeak) / float64(est.OriginalPeak) * 100
	}
	return est
}

// MarginalSavings estimates, for each finding, the peak reduction from
// applying that finding's fix alone — the prioritization signal the paper's
// severity metrics approximate. A finding whose object never contributes to
// the peak has zero marginal savings even if it wastes many bytes, which is
// exactly the distinction a developer planning fixes needs.
//
// The per-finding estimates are independent replays over a read-only trace,
// so they fan out across GOMAXPROCS workers; each worker writes only its
// finding's slot, so the result does not depend on the worker count. At
// GOMAXPROCS=1 they run in order on the calling goroutine.
func MarginalSavings(t *trace.Trace, findings []pattern.Finding) []uint64 {
	out := make([]uint64, len(findings))
	if len(findings) == 0 {
		return out
	}
	// Each per-finding estimate replays every object's timeline; on traces
	// with thousands of findings over thousands of objects that quadratic
	// cost is not worth a prioritization hint, so it is skipped (the
	// aggregate Estimate is unaffected).
	if len(findings)*len(t.Objects) > 2_000_000 {
		return out
	}
	base := Advise(t, nil).OriginalPeak
	one := func(i int) {
		est := Advise(t, findings[i:i+1])
		if est.EstimatedPeak < base {
			out[i] = base - est.EstimatedPeak
		}
	}
	workers := min(runtime.GOMAXPROCS(0), len(findings))
	if workers <= 1 {
		for i := range findings {
			one(i)
		}
		return out
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(findings) {
					return
				}
				one(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// subtract removes gap from every interval, splitting where needed.
func subtract(ivs []interval, gap interval) []interval {
	if gap.end <= gap.start {
		return ivs
	}
	var out []interval
	for _, iv := range ivs {
		if gap.end <= iv.start || gap.start >= iv.end {
			out = append(out, iv)
			continue
		}
		if gap.start > iv.start {
			out = append(out, interval{start: iv.start, end: gap.start})
		}
		if gap.end < iv.end {
			out = append(out, interval{start: gap.end, end: iv.end})
		}
	}
	return out
}
