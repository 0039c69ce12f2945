package core

import (
	"sort"

	"drgpum/internal/depgraph"
	"drgpum/internal/gpu"
	"drgpum/internal/intraobj"
	"drgpum/internal/objlevel"
	"drgpum/internal/obs"
	"drgpum/internal/trace"
)

// DefaultWindowKernels is the kernel-epoch length used when
// StreamingConfig.WindowKernels is unset.
const DefaultWindowKernels = 16

// StreamingConfig enables incremental, memory-bounded analysis: GPU APIs
// are grouped into kernel-epoch windows, and when a window closes its raw
// per-invocation state — access ranges, run batches, intermediate access
// events, intra-object bitmaps of freed objects — is folded into compact
// summaries and retired. Collector resident memory becomes O(open window +
// summaries) instead of O(full history), Snapshot cost becomes
// O(delta-since-last-window), and Finish produces a report byte-identical
// to the offline pipeline (the streaming determinism tests pin this).
type StreamingConfig struct {
	// Enabled turns streaming windowed analysis on.
	Enabled bool
	// WindowKernels is how many kernel launches one epoch spans before the
	// window closes (<= 0 selects DefaultWindowKernels).
	WindowKernels int
}

// HeatCell is one object's access intensity within one epoch.
type HeatCell struct {
	// Object is the touched object.
	Object trace.ObjectID
	// Touches counts the GPU APIs of the epoch that accessed the object.
	Touches uint64
	// ExcessTransactions counts the memory transactions the cost model
	// attributed to the object during the epoch beyond the coalesced ideal
	// (zero when the cost model is off): the temporal traffic-waste track.
	ExcessTransactions uint64
}

// HeatEpoch is one closed kernel-epoch window of the temporal heat map.
type HeatEpoch struct {
	// FirstAPI and LastAPI bound the epoch (invocation indices, inclusive).
	FirstAPI uint64
	LastAPI  uint64
	// Cells lists the objects touched during the epoch, ascending by ID.
	Cells []HeatCell
}

// HeatMap is the object×epoch access-intensity matrix a streaming run
// accumulates — the temporal view the CUTHERMO-style heat-map rendering and
// the GUI heat track draw from.
type HeatMap struct {
	// WindowKernels is the epoch length the map was built with.
	WindowKernels int
	// Epochs lists the closed windows in time order.
	Epochs []HeatEpoch
}

// windowManager is the streaming ingestion hook: it observes every GPU API
// after the collector appended it, assigns topological timestamps and
// evaluates consecutive-access rules at arrival, accumulates per-epoch heat
// cells, seals the intra-object state of freed objects, and — when a window
// closes — compacts access lists and retires the window's API records.
type windowManager struct {
	t        *trace.Trace
	recorder *intraobj.Recorder // nil at object-level granularity
	inc      *depgraph.Incremental
	acc      *objlevel.Accumulator

	windowKernels int
	kernels       int    // kernel launches in the open window
	retired       uint64 // invocation index where the open window starts
	maxTopo       uint64 // incrementally tracked maximum timestamp

	curCells map[trace.ObjectID]uint64
	// curExcess/prevExcess difference the collector's cumulative per-object
	// cost into per-epoch excess-transaction deltas.
	curExcess  map[trace.ObjectID]uint64
	prevExcess map[trace.ObjectID]uint64
	heat       *HeatMap

	obsRec  *obs.Recorder
	winNode *obs.Node
}

var _ gpu.Hook = (*windowManager)(nil)

func newWindowManager(t *trace.Trace, rec *intraobj.Recorder, cfg Config) *windowManager {
	wk := cfg.Streaming.WindowKernels
	if wk <= 0 {
		wk = DefaultWindowKernels
	}
	wm := &windowManager{
		t:             t,
		recorder:      rec,
		inc:           depgraph.NewIncremental(),
		acc:           objlevel.NewAccumulator(cfg.ObjLevel),
		windowKernels: wk,
		curCells:      make(map[trace.ObjectID]uint64),
		curExcess:     make(map[trace.ObjectID]uint64),
		prevExcess:    make(map[trace.ObjectID]uint64),
		heat:          &HeatMap{WindowKernels: wk},
		obsRec:        cfg.Obs,
	}
	if root := cfg.Obs.Root(); root != nil {
		wm.winNode = root.Child("ingest").Child("window")
	}
	return wm
}

// OnAPI implements gpu.Hook. It runs after the collector's OnAPI (hook
// order), so t.APIs[rec.Index] exists, the object touch sets are final, and
// lifetime endpoints are recorded — everything arrival-time analysis needs.
func (wm *windowManager) OnAPI(rec *gpu.APIRecord) {
	sp := wm.winNode.Start()
	info := wm.t.APIs[rec.Index]

	// Assign the final topological timestamp and fold dependency edges.
	wm.inc.Observe(wm.t, info)
	if info.Topo > wm.maxTopo {
		wm.maxTopo = info.Topo
	}

	// Feed each touched object's final event to the consecutive-access
	// accumulator and bump its heat cell.
	for _, id := range mergeTouched(info.ReadObjs, info.WriteObjs) {
		o := wm.t.Object(id)
		if ev := o.LastAccess(); ev != nil && ev.API == rec.Index {
			wm.acc.Observe(wm.t, id, *ev)
		}
		wm.curCells[id]++
		// The collector's OnAPI already folded this kernel's cost into the
		// object's cumulative counters; differencing against the previous
		// observation yields this epoch's traffic-waste delta.
		if rec.Kind == gpu.APIKernel && rec.Cost != nil {
			if ex := o.Cost.ExcessTransactions(); ex > wm.prevExcess[id] {
				wm.curExcess[id] += ex - wm.prevExcess[id]
				wm.prevExcess[id] = ex
			}
		}
	}

	switch rec.Kind {
	case gpu.APIFree:
		if wm.recorder != nil && info.HasObj {
			wm.recorder.Seal(int(info.Obj))
			wm.obsRec.AddNamed(obs.NamedWindowObjectsSealed, 1)
		}
	case gpu.APIKernel:
		wm.kernels++
		if wm.kernels >= wm.windowKernels {
			wm.closeWindow(rec.Index)
		}
	}
	sp.End()
}

// OnAccessBatch implements gpu.Hook. Access batches are consumed upstream
// (collector attribution, intra-object recorder); the window manager only
// acts at API boundaries.
func (wm *windowManager) OnAccessBatch(*gpu.APIRecord, []gpu.MemAccess) {}

// closeWindow finalizes the open window ending at invocation index upTo:
// record its heat epoch, compact the access lists of its touched objects,
// and retire its API records.
func (wm *windowManager) closeWindow(upTo uint64) {
	cells := make([]HeatCell, 0, len(wm.curCells))
	for id, n := range wm.curCells {
		cells = append(cells, HeatCell{Object: id, Touches: n, ExcessTransactions: wm.curExcess[id]})
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].Object < cells[j].Object })
	wm.heat.Epochs = append(wm.heat.Epochs, HeatEpoch{
		FirstAPI: wm.retired,
		LastAPI:  upTo,
		Cells:    cells,
	})

	// Every event of a closed window has been consumed: timestamps and
	// dependency edges at arrival, consecutive-access rules by the
	// accumulator, intra-object maps by the recorder. What Finish still
	// needs from an object is only its first/last event, which compaction
	// preserves; what it needs from an API is identity and timestamp, which
	// retirement preserves.
	for i := range cells {
		wm.t.Object(cells[i].Object).CompactAccesses()
	}
	retired := uint64(0)
	for idx := wm.retired; idx <= upTo && idx < uint64(len(wm.t.APIs)); idx++ {
		if a := wm.t.APIs[idx]; a != nil {
			a.Retire()
			retired++
		}
	}
	wm.t.Streamed = true
	wm.retired = upTo + 1
	wm.kernels = 0
	clear(wm.curCells)
	clear(wm.curExcess)

	wm.obsRec.AddNamed(obs.NamedWindowsClosed, 1)
	wm.obsRec.AddNamed(obs.NamedWindowAPIsRetired, retired)
}

// finish closes the trailing partial window. Only Finish calls this —
// Snapshot must leave the open window open, so interleaved snapshots do not
// change what Finish reports.
func (wm *windowManager) finish() {
	if n := uint64(len(wm.t.APIs)); wm.retired < n {
		wm.closeWindow(n - 1)
	}
}

// Heat returns the accumulated temporal heat map.
func (wm *windowManager) Heat() *HeatMap { return wm.heat }

// mergeTouched unions an API's read and write object sets. Each set is
// duplicate-free but in first-touch order, so this deduplicates by linear
// scan and sorts ascending for a deterministic visit order.
func mergeTouched(reads, writes []trace.ObjectID) []trace.ObjectID {
	if len(writes) == 0 {
		return reads
	}
	if len(reads) == 0 {
		return writes
	}
	out := make([]trace.ObjectID, 0, len(reads)+len(writes))
	out = append(out, reads...)
	for _, id := range writes {
		dup := false
		for _, x := range out {
			if x == id {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
