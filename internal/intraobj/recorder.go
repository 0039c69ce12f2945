package intraobj

import (
	"math"

	"drgpum/internal/gpu"
	"drgpum/internal/obs"
	"drgpum/internal/trace"
)

// MapMode says where a kernel's access maps were updated (paper §5.5,
// "Accelerating intra-object analysis").
type MapMode uint8

const (
	// MapModeDevice updates access maps in device memory with atomic
	// operations and copies only the final maps back — fast, but the maps
	// must fit in device memory next to the live data objects.
	MapModeDevice MapMode = iota
	// MapModeHost ships every accessed address to the host and updates the
	// maps there — slower, but bounded only by host memory.
	MapModeHost
)

// String names the mode.
func (m MapMode) String() string {
	if m == MapModeHost {
		return "host"
	}
	return "device"
}

// ModeStats counts how many instrumented kernels ran in each mode.
type ModeStats struct {
	DeviceKernels int
	HostKernels   int
}

// objState is the per-object intra-object bookkeeping.
type objState struct {
	obj   *trace.Object
	elems int

	// cumulative access bitmap across all instrumented kernels — drives
	// overallocation and the structured-access "claimed" check.
	total *Bitmap
	// cumulative per-element access frequencies across all kernels — used
	// for the aggregate histogram shown in reports.
	totalFreq []uint32

	// current-API state (paper §5.2, non-uniform access frequency
	// procedure). Per-element frequencies are kept as a difference array:
	// an access covering [lo, hi] costs two updates (curDiff[lo]++,
	// curDiff[hi+1]--) regardless of width, and finalization prefix-sums
	// the touched window to recover exact counts. uint32 wraparound makes
	// the -1 markers cancel; true frequencies must fit in uint32, the same
	// bound the dense map had. curLo/curHi bound the touched elements so
	// finalization and map wiping scale with the window, not the object.
	curDiff    []uint32
	curTouched *Bitmap
	curLo      int
	curHi      int
	curAPI     uint64
	curKernel  string
	curActive  bool

	// host-mode spill buffer for the current API.
	spill []spilledAccess

	// sliceTotals records, per touching API in order, the total number of
	// accesses that API made to this object. When the structured-access
	// property holds these are exactly the per-slice access frequencies the
	// paper sorts to pick hot slices (§7.3: "the variance of access
	// frequencies of individual slices in R_gpu is 58%").
	sliceTotals []uint64
	// hotKernel is the kernel that accessed this object the most.
	hotKernel      string
	hotKernelTotal uint64
	lastAPI        uint64

	// structured-access state. saViolated records an overlap between two
	// APIs' touched regions; saNonContig records that some API's touched
	// region was not a contiguous slice.
	saViolated  bool
	saNonContig bool
	apiTouches  int

	// sealed replaces the maps above once the streaming window manager
	// freezes a freed object (Seal): derived values are precomputed and the
	// O(elements) buffers released.
	sealed *sealedState
}

type spilledAccess struct {
	lo, hi int
}

// Recorder consumes the object-attributed access stream (it implements
// trace.AccessSink) and maintains per-object bitmaps and frequency maps.
// It adaptively chooses device- or host-side map updates per kernel based
// on a memory budget, mirroring the paper's scheme: device maps are used
// only while the total size of access maps plus live data objects fits in
// GPU memory.
type Recorder struct {
	// CapacityBytes is the simulated device memory capacity.
	CapacityBytes uint64
	// LiveBytes reports the device bytes currently occupied by data
	// objects; the profiler wires this to the device allocator.
	LiveBytes func() uint64

	states map[trace.ObjectID]*objState
	order  []trace.ObjectID // insertion order for deterministic reports

	// active lists the objects touched by the in-flight API in first-touch
	// order, so finalization visits exactly the touched set instead of
	// every object ever seen.
	active []*objState
	// stateCache is a small direct-mapped cache over states, indexed by
	// ObjectID&7. Kernel streams cycle through a handful of operands (A, r
	// and s for `s[j] += A[i][j]*r[i]`), so nearly every access resolves
	// its state with one index and one compare instead of a map lookup and
	// activation check. Entries are only trusted while active for the
	// in-flight API.
	stateCache [8]*objState
	// mapBytesTotal is the incrementally-maintained access-map footprint of
	// all tracked objects (what mapBytes re-summed before every kernel).
	mapBytesTotal uint64

	curAPI    uint64
	curMode   MapMode
	haveAPI   bool
	modeStats ModeStats

	// Self-observability taps. The hot ingestion loops only bump the plain
	// local totals below; Flush publishes the deltas to the recorder, so
	// the per-access cost with observability on is identical to off.
	// finalizeNode is nil without an enabled recorder (one nil check per
	// kernel finalization).
	obsRec       *obs.Recorder
	finalizeNode *obs.Node
	spillTotal   uint64 // coalesced host-mode spill records replayed
	wordTotal    uint64 // access-bitmap words covered by finalized windows
	spillPub     uint64 // portion of spillTotal already published
	wordPub      uint64 // portion of wordTotal already published
}

var _ trace.AccessSink = (*Recorder)(nil)

// NewRecorder creates a recorder with the given device memory capacity used
// for the adaptive mode decision. A zero capacity always selects device
// maps.
func NewRecorder(capacityBytes uint64) *Recorder {
	return &Recorder{
		CapacityBytes: capacityBytes,
		states:        make(map[trace.ObjectID]*objState),
	}
}

// Stats returns the adaptive-mode kernel counts.
func (r *Recorder) Stats() ModeStats { return r.modeStats }

// SetObs installs a self-observability recorder: per-kernel finalization
// reports a span under ingest/finalize, and Flush publishes the spill and
// bitmap-word counters. Inert with a nil or disabled recorder.
func (r *Recorder) SetObs(rec *obs.Recorder) {
	if root := rec.Root(); root != nil {
		r.obsRec = rec
		r.finalizeNode = root.Child("ingest").Child("finalize")
	}
}

// mapBytes estimates the device memory the access maps of all tracked
// objects would occupy: one bit per element (bitmap) plus four bytes per
// element (frequency map). Maintained incrementally as objects are first
// seen, so the per-kernel mode decision is O(1).
func (r *Recorder) mapBytes() uint64 { return r.mapBytesTotal }

// chooseMode applies the paper's rule: before each kernel, if access maps
// and live data objects together fit in device memory, update maps on the
// device; otherwise fall back to host-side updates.
func (r *Recorder) chooseMode() MapMode {
	if r.CapacityBytes == 0 {
		return MapModeDevice
	}
	var live uint64
	if r.LiveBytes != nil {
		live = r.LiveBytes()
	}
	if live+r.mapBytes() <= r.CapacityBytes {
		return MapModeDevice
	}
	return MapModeHost
}

// beginAccess is the shared ingestion prologue: close the previous API if
// the stream moved on, resolve (or create) the object's state, and activate
// it for the current API.
func (r *Recorder) beginAccess(o *trace.Object, rec *gpu.APIRecord) *objState {
	if !r.haveAPI || rec.Index != r.curAPI {
		r.finalizeAPI()
		r.curAPI = rec.Index
		r.haveAPI = true
		r.curMode = r.chooseMode()
		if r.curMode == MapModeDevice {
			r.modeStats.DeviceKernels++
		} else {
			r.modeStats.HostKernels++
		}
	}

	// curActive can only be true for the in-flight API (finalizeAPI clears
	// it), so an active cached state needs no further validation.
	slot := uint(o.ID) & 7
	if st := r.stateCache[slot]; st != nil && st.obj == o && st.curActive {
		return st
	}
	st := r.states[o.ID]
	if st == nil {
		st = newObjState(o)
		r.states[o.ID] = st
		r.order = append(r.order, o.ID)
		r.mapBytesTotal += uint64(st.elems)/8 + uint64(st.elems)*4
	}
	if !st.curActive {
		st.beginAPI(rec.Index, rec.Name)
		r.active = append(r.active, st)
	}
	r.stateCache[slot] = st
	return st
}

// ObjectAccess implements trace.AccessSink.
func (r *Recorder) ObjectAccess(o *trace.Object, rec *gpu.APIRecord, a gpu.MemAccess) {
	st := r.beginAccess(o, rec)
	es := uint64(o.ElemSize)
	if es == 0 {
		es = 4
	}
	lo := int(uint64(a.Addr-o.Ptr) / es)
	hi := int((uint64(a.Addr-o.Ptr) + uint64(a.Size) - 1) / es)
	if r.curMode == MapModeHost {
		st.addSpill(lo, hi)
		return
	}
	st.update(lo, hi)
}

// ObjectAccessRun implements trace.BatchAccessSink: a run of consecutive
// accesses that all hit the same object during the same API pays the state
// lookup, activation check and mode branch once instead of per access.
func (r *Recorder) ObjectAccessRun(o *trace.Object, rec *gpu.APIRecord, run []gpu.MemAccess) {
	if len(run) == 0 {
		return
	}
	st := r.beginAccess(o, rec)
	es := uint64(o.ElemSize)
	if es == 0 {
		es = 4
	}
	host := r.curMode == MapModeHost
	for i := range run {
		off := uint64(run[i].Addr - o.Ptr)
		lo := int(off / es)
		hi := int((off + uint64(run[i].Size) - 1) / es)
		if host {
			st.addSpill(lo, hi)
		} else {
			st.update(lo, hi)
		}
	}
}

func newObjState(o *trace.Object) *objState {
	elems := o.Elems()
	return &objState{
		obj:       o,
		elems:     elems,
		total:     NewBitmap(elems),
		totalFreq: make([]uint32, elems),
	}
}

// beginAPI opens the object's per-API maps (paper: "upon the invocation of
// a GPU API A, DrGPUM zeros out hashmaps of data objects this GPU API will
// access"). The maps are wiped window-at-a-time by finalizeAPI, so an
// object whose maps were never touched since the last reset pays nothing
// here — only the lazily-allocated buffers are created on first use.
func (st *objState) beginAPI(api uint64, kernel string) {
	if st.curDiff == nil {
		// One extra slot holds the -1 marker of a range ending at the last
		// element.
		st.curDiff = make([]uint32, st.elems+1)
		st.curTouched = NewBitmap(st.elems)
	}
	st.curLo, st.curHi = st.elems, -1
	st.curAPI = api
	st.curKernel = kernel
	st.curActive = true
	st.spill = st.spill[:0]
}

// update applies one access covering elements [lo, hi] to the current maps:
// two difference-array stores and one word-level bitmap range set,
// independent of the access width. Single-element accesses (the pointwise
// kernel shape) skip the range machinery entirely.
func (st *objState) update(lo, hi int) {
	if lo == hi {
		if uint(lo) >= uint(st.elems) {
			return
		}
		st.curDiff[lo]++
		st.curDiff[lo+1]--
		st.curTouched.words[lo>>6] |= 1 << (uint(lo) & 63)
		if lo < st.curLo {
			st.curLo = lo
		}
		if lo > st.curHi {
			st.curHi = lo
		}
		return
	}
	if lo < 0 {
		lo = 0
	}
	if hi >= st.elems {
		hi = st.elems - 1
	}
	if lo > hi {
		return
	}
	st.curDiff[lo]++
	st.curDiff[hi+1]--
	st.curTouched.SetRange(lo, hi)
	if lo < st.curLo {
		st.curLo = lo
	}
	if hi > st.curHi {
		st.curHi = hi
	}
}

// addSpill buffers a host-mode access for replay at kernel end, coalescing
// with the previous record when the new range extends it without overlap
// (the dominant shape of sequential sweeps). Only disjoint-adjacent merges
// are legal: merging overlapping records would undercount frequencies.
func (st *objState) addSpill(lo, hi int) {
	if n := len(st.spill); n > 0 {
		last := &st.spill[n-1]
		if lo == last.hi+1 {
			last.hi = hi
			return
		}
		if hi == last.lo-1 {
			last.lo = lo
			return
		}
	}
	st.spill = append(st.spill, spilledAccess{lo: lo, hi: hi})
}

// finalizeAPI closes out the per-API maps of every object the finished
// kernel touched: replay host-mode spills, evaluate the per-API totals, run
// the structured-access disjointness check, fold the per-API maps into the
// cumulative ones, and wipe the touched window so the next beginAPI starts
// from clean maps. Only the active set — objects this API actually touched
// — is visited.
func (r *Recorder) finalizeAPI() {
	if !r.haveAPI {
		return
	}
	sp := r.finalizeNode.Start()
	for _, st := range r.active {
		spills, words := st.finalizeObj()
		r.spillTotal += spills
		r.wordTotal += words
	}
	r.active = r.active[:0]
	sp.End()
}

// finalizeObj closes out one object's per-API maps and returns the spill
// and bitmap-word counts it consumed, which finalizeAPI accumulates.
func (st *objState) finalizeObj() (spills, words uint64) {
	spills = uint64(len(st.spill))
	for _, s := range st.spill {
		st.update(s.lo, s.hi)
	}
	st.spill = st.spill[:0]

	var apiTotal uint64
	if st.curHi >= st.curLo {
		words = uint64(st.curHi>>6-st.curLo>>6) + 1
		// Prefix-sum the difference array over the touched window to
		// recover exact per-element frequencies (holes inside the
		// window sum to zero), folding into the cumulative map as we
		// go.
		var cur uint32
		for i := st.curLo; i <= st.curHi; i++ {
			cur += st.curDiff[i]
			st.totalFreq[i] += cur
			apiTotal += uint64(cur)
		}

		// Structured access: this API's slice must not overlap any
		// element already claimed by a previous API.
		if st.curTouched.Overlaps(st.total) {
			st.saViolated = true
		}
		if !st.curTouched.Contiguous() {
			st.saNonContig = true
		}
		st.apiTouches++
		st.sliceTotals = append(st.sliceTotals, apiTotal)

		st.total.Or(st.curTouched)

		// Clean-on-finalize: wipe only the touched window so beginAPI
		// needs no O(elements) zeroing.
		clear(st.curDiff[st.curLo : st.curHi+2])
		st.curTouched.ResetRange(st.curLo, st.curHi)
	}
	if apiTotal > st.hotKernelTotal {
		st.hotKernelTotal = apiTotal
		st.hotKernel = st.curKernel
		st.lastAPI = st.curAPI
	}
	st.curActive = false
	return spills, words
}

// Flush finalizes the in-flight API and publishes the accumulated counter
// deltas (publishing deltas keeps repeated Flush/Snapshot cycles from
// double-counting on a recorder shared across runs). The profiler calls it
// once collection ends, before detection.
func (r *Recorder) Flush() {
	r.finalizeAPI()
	r.haveAPI = false
	if r.obsRec != nil {
		r.obsRec.Add(obs.CtrSpillRecords, r.spillTotal-r.spillPub)
		r.obsRec.Add(obs.CtrBitmapWords, r.wordTotal-r.wordPub)
		r.spillPub, r.wordPub = r.spillTotal, r.wordTotal
	}
}

// excessCV removes the sampling-noise floor from a coefficient of
// variation: counts that arise from N independent random draws are
// Poisson-distributed with CV^2 ~= 1/mean even when the underlying access
// pattern is perfectly uniform. Subtracting that floor (in variance space)
// keeps Monte Carlo workloads such as XSBench from reporting non-uniform
// access frequency on statistically-uniform data, while deterministic skews
// (banded solvers, triangular updates) pass through essentially unchanged.
func excessCV(cvPct, mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	floor := 100 * 100 / mean // (100/sqrt(mean))^2, in pct^2
	v := cvPct*cvPct - floor
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}
