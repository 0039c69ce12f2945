package intraobj

import (
	"math"

	"drgpum/internal/pattern"
)

// Config carries the user-tunable thresholds of §3.2.
type Config struct {
	// OverallocThreshold is X of Definition 3.8: report an object whose
	// accessed-element percentage is below this. The paper uses 80.
	OverallocThreshold float64
	// OverallocFragThreshold additionally requires the fragmentation of the
	// unaccessed space (Equation 1) to be below this percentage, following
	// the paper's rule "we investigate a data object iff both percentages
	// are less than 80%" — objects whose unaccessed elements are scattered
	// are not actionable (Table 2). The paper uses 80.
	OverallocFragThreshold float64
	// NUAFThreshold is X of Definition 3.9: report when the coefficient of
	// variation of per-element access frequencies exceeds this percentage.
	// The paper uses 20.
	NUAFThreshold float64
}

// DefaultConfig returns the paper's experimental settings.
func DefaultConfig() Config {
	return Config{OverallocThreshold: 80, OverallocFragThreshold: 80, NUAFThreshold: 20}
}

// Detect evaluates the three intra-object patterns over everything the
// recorder observed and returns findings in object insertion order. Only
// objects touched by at least one instrumented kernel are considered —
// never-observed objects are the object-level unused-allocation detector's
// business, and reporting 0% access for a kernel that simply was not
// instrumented would be a false positive.
func (r *Recorder) Detect(cfg Config) []pattern.Finding {
	if cfg.OverallocThreshold <= 0 {
		cfg.OverallocThreshold = 80
	}
	if cfg.OverallocFragThreshold <= 0 {
		cfg.OverallocFragThreshold = 80
	}
	if cfg.NUAFThreshold <= 0 {
		cfg.NUAFThreshold = 20
	}
	r.Flush()

	var out []pattern.Finding
	for _, id := range r.order {
		st := r.states[id]

		// Overallocation (Definition 3.8) with the Equation 1 fragmentation
		// metric attached for Table 2 guidance.
		accessed := st.accessedPct()
		if accessed < cfg.OverallocThreshold && st.fragPct() < cfg.OverallocFragThreshold {
			unaccessedElems := st.elems - st.accessedCount()
			es := uint64(st.obj.ElemSize)
			if es == 0 {
				es = 4
			}
			out = append(out, pattern.Finding{
				Pattern:          pattern.Overallocation,
				Object:           st.obj.ID,
				AccessedPct:      accessed,
				FragmentationPct: st.fragPct(),
				WastedBytes:      uint64(unaccessedElems) * es,
			})
		}

		// Structured Access (Definition 3.10): >= 2 APIs, every API touched
		// a contiguous slice, and no two slices overlapped.
		if st.structured() {
			out = append(out, pattern.Finding{
				Pattern:  pattern.StructuredAccess,
				Object:   st.obj.ID,
				AtKernel: st.hotKernel,
				// Savings bound: all but the largest slice could be avoided
				// by reusing one slice-sized allocation. We approximate the
				// slice size with the mean slice, i.e. covered/apiTouches.
				WastedBytes: structuredSavings(st),
			})
		}

		// Non-uniform Access Frequency (Definition 3.9). The variation is
		// computed over the run's cumulative access frequencies: per
		// structured-access slice when the object has the SA property (the
		// paper's GramSchmidt analysis sorts slices by access frequency),
		// per accessed element otherwise; a Poisson shot-noise floor is
		// subtracted so Monte Carlo sampling does not masquerade as skew.
		if cv := nuafVariation(st); cv > cfg.NUAFThreshold {
			out = append(out, pattern.Finding{
				Pattern:      pattern.NonUniformAccessFrequency,
				Object:       st.obj.ID,
				AtKernel:     st.hotKernel,
				APIs:         []uint64{st.lastAPI},
				VariationPct: cv,
			})
		}
	}
	return out
}

// accessedPct, fragPct and accessedCount read the cumulative-bitmap metrics,
// from the frozen summary for sealed objects.
func (st *objState) accessedPct() float64 {
	if st.sealed != nil {
		return st.sealed.accessedPct
	}
	return st.total.AccessedPct()
}

func (st *objState) fragPct() float64 {
	if st.sealed != nil {
		return st.sealed.fragPct
	}
	return st.total.Fragmentation()
}

func (st *objState) accessedCount() int {
	if st.sealed != nil {
		return st.sealed.count
	}
	return st.total.Count()
}

// nuafVariation computes the non-uniform access frequency metric for one
// object: the noise-corrected coefficient of variation of per-slice totals
// (structured objects) or per-accessed-element frequencies.
func nuafVariation(st *objState) float64 {
	if st.sealed != nil {
		return st.sealed.nuaf
	}
	// The samples are the per-slice totals of a structured object, else
	// the nonzero per-element frequencies. Both passes walk them in place,
	// in the same order, so no sample slice the size of the object is
	// built.
	structured := st.structured()
	var n int
	var sum float64
	if structured {
		n = len(st.sliceTotals)
		for _, t := range st.sliceTotals {
			sum += float64(t)
		}
	} else {
		for _, f := range st.totalFreq {
			if f > 0 {
				n++
				sum += float64(f)
			}
		}
	}
	if n < 2 {
		return 0
	}
	mean := sum / float64(n)
	if mean == 0 {
		return 0
	}
	var ss float64
	if structured {
		for _, t := range st.sliceTotals {
			d := float64(t) - mean
			ss += d * d
		}
	} else {
		for _, f := range st.totalFreq {
			if f > 0 {
				d := float64(f) - mean
				ss += d * d
			}
		}
	}
	// Coefficient of variation in percent: stddev/mean, the paper's
	// variance metric (§3.2 footnote).
	cv := math.Sqrt(ss/float64(n)) / mean * 100
	return excessCV(cv, mean)
}

// structured reports whether the object satisfies Definition 3.10: at
// least two touching APIs, each touching one contiguous slice, all slices
// pairwise disjoint.
func (st *objState) structured() bool {
	return st.apiTouches >= 2 && !st.saViolated && !st.saNonContig
}

// structuredSavings estimates the bytes saved by allocating one slice
// instead of the whole object: total object size minus one mean-sized slice.
func structuredSavings(st *objState) uint64 {
	if st.sealed != nil {
		return st.sealed.savings
	}
	covered := st.total.Count()
	if covered == 0 || st.apiTouches == 0 {
		return 0
	}
	es := uint64(st.obj.ElemSize)
	if es == 0 {
		es = 4
	}
	meanSlice := uint64(covered/st.apiTouches) * es
	if meanSlice >= st.obj.Size {
		return 0
	}
	return st.obj.Size - meanSlice
}

// FrequencyHistogram buckets the cumulative per-element access frequencies
// of an object into the given number of equal-width element ranges and
// returns the total access count per bucket. The paper's GUI plots this to
// help users pick hot slices for shared-memory placement (§5.2, §7.3).
func (r *Recorder) FrequencyHistogram(id int, buckets int) []uint64 {
	var st *objState
	for _, oid := range r.order {
		if int(oid) == id {
			st = r.states[oid]
			break
		}
	}
	if st == nil || buckets <= 0 {
		return nil
	}
	out := make([]uint64, buckets)
	if st.elems == 0 {
		return out
	}
	if st.sealed != nil {
		// Sealed objects keep a fixed-resolution histogram; the GUI's bucket
		// count matches it exactly, other counts re-bucket deterministically.
		if buckets == sealBuckets {
			copy(out, st.sealed.hist)
			return out
		}
		for i, f := range st.sealed.hist {
			b := i * buckets / sealBuckets
			if b >= buckets {
				b = buckets - 1
			}
			out[b] += f
		}
		return out
	}
	for i, f := range st.totalFreq {
		b := i * buckets / st.elems
		if b >= buckets {
			b = buckets - 1
		}
		out[b] += uint64(f)
	}
	return out
}

// AccessedPctOf returns the accessed-element percentage of an object the
// recorder observed, and whether it was observed at all.
func (r *Recorder) AccessedPctOf(id int) (float64, bool) {
	for _, oid := range r.order {
		if int(oid) == id {
			return r.states[oid].accessedPct(), true
		}
	}
	return 0, false
}
