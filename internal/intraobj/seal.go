package intraobj

import "drgpum/internal/trace"

// sealBuckets is the histogram resolution preserved at seal time. It matches
// the GUI's bucket count, so the common render path reads sealed histograms
// losslessly; other bucket counts are re-bucketed from the stored 32.
const sealBuckets = 32

// sealedState is the compact summary of a freed object's intra-object
// analysis: every value Detect, FrequencyHistogram and AccessedPctOf would
// derive from the bitmaps and frequency maps, precomputed through the exact
// same code paths so the final report is byte-identical, in O(1) + one
// fixed-size histogram per object instead of O(elements).
type sealedState struct {
	accessedPct float64
	fragPct     float64
	count       int
	nuaf        float64
	savings     uint64
	hist        []uint64 // sealBuckets equal-width element ranges
}

// Seal finalizes the in-flight API and freezes the intra-object state of
// object id, releasing its bitmaps, frequency maps and per-API buffers. The
// streaming window manager calls this when the object is freed: no further
// access can attribute to it (the collector delisted its range), so every
// input to the sealed values is final.
//
// Finalizing the in-flight API early is equivalent to the offline schedule:
// a free's OnAPI arrives after the accessed kernel's OnAPI, so the folded
// maps are exactly what the next beginAccess (or Flush) would fold, and the
// next kernel's mode decision sees identical inputs — mapBytesTotal is
// deliberately NOT decremented, matching the offline recorder, which never
// shrinks its map-footprint estimate.
func (r *Recorder) Seal(id int) {
	st := r.states[trace.ObjectID(id)]
	if st == nil || st.sealed != nil {
		return
	}
	r.finalizeAPI()
	sealed := &sealedState{
		accessedPct: st.total.AccessedPct(),
		fragPct:     st.total.Fragmentation(),
		count:       st.total.Count(),
		nuaf:        nuafVariation(st),
		savings:     structuredSavings(st),
		hist:        make([]uint64, sealBuckets),
	}
	if st.elems > 0 {
		for i, f := range st.totalFreq {
			b := i * sealBuckets / st.elems
			if b >= sealBuckets {
				b = sealBuckets - 1
			}
			sealed.hist[b] += uint64(f)
		}
	}
	st.sealed = sealed
	st.total = nil
	st.totalFreq = nil
	st.curDiff = nil
	st.curTouched = nil
	st.spill = nil
	st.sliceTotals = nil
}
