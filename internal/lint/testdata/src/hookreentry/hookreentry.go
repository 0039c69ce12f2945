// Package hookreentry is the fixture for the hookreentry analyzer:
// Sanitizer-analog callbacks must not re-enter simulator mutating APIs.
package hookreentry

import (
	"drgpum/internal/gpu"
	"drgpum/internal/obs"
	"drgpum/internal/pool"
	"drgpum/internal/trace"
)

// badHook re-enters the device from both callback kinds — flagged.
type badHook struct {
	dev     *gpu.Device
	scratch gpu.DevicePtr
}

var _ gpu.Hook = (*badHook)(nil)

func (h *badHook) OnAPI(rec *gpu.APIRecord) {
	if ptr, err := h.dev.Malloc(64); err == nil { // want `hook OnAPI calls Device.Malloc`
		h.scratch = ptr
	}
}

func (h *badHook) OnAccessBatch(rec *gpu.APIRecord, batch []gpu.MemAccess) {
	h.dev.Synchronize() // want `hook OnAccessBatch calls Device.Synchronize`
}

// badSink re-enters from the access-sink callbacks — flagged.
type badSink struct {
	dev  *gpu.Device
	pool *pool.Pool
}

var _ trace.BatchAccessSink = (*badSink)(nil)

func (s *badSink) ObjectAccess(o *trace.Object, rec *gpu.APIRecord, a gpu.MemAccess) {
	if err := s.dev.Memset(a.Addr, 0, uint64(a.Size), nil); err != nil { // want `hook ObjectAccess calls Device.Memset`
		panic(err)
	}
}

func (s *badSink) ObjectAccessRun(o *trace.Object, rec *gpu.APIRecord, run []gpu.MemAccess) {
	if _, err := s.pool.Alloc(16); err != nil { // want `hook ObjectAccessRun calls pool Pool.Alloc`
		panic(err)
	}
}

// registerBadObserver installs a pool observer that re-enters — flagged.
func registerBadObserver(dev *gpu.Device, p *pool.Pool) {
	p.Register(func(ev pool.Event) {
		dev.CustomAlloc("shadow", 0x1000, ev.Size) // want `hook pool observer calls Device.CustomAlloc`
	})
}

// goodHook only observes — silent.
type goodHook struct {
	dev  *gpu.Device
	apis []string
	seen uint64
}

var _ gpu.Hook = (*goodHook)(nil)

func (h *goodHook) OnAPI(rec *gpu.APIRecord) {
	h.apis = append(h.apis, rec.Name)
	_ = h.dev.Spec() // read-only queries are fine
}

func (h *goodHook) OnAccessBatch(rec *gpu.APIRecord, batch []gpu.MemAccess) {
	h.seen += uint64(len(batch))
}

// obsHook records self-observability from inside hook callbacks. The obs
// package never touches the device or a pool, so spans and counter updates
// are re-entry-safe and must stay unflagged — this is the contract the
// collector's ingestion taps rely on.
type obsHook struct {
	rec       *obs.Recorder
	apiNode   *obs.Node
	batchNode *obs.Node
}

var _ gpu.Hook = (*obsHook)(nil)

func (h *obsHook) OnAPI(rec *gpu.APIRecord) {
	sp := h.apiNode.Start()
	h.rec.Add(obs.CtrAPIs, 1)
	sp.End()
}

func (h *obsHook) OnAccessBatch(rec *gpu.APIRecord, batch []gpu.MemAccess) {
	sp := h.batchNode.Start()
	h.rec.Add(obs.CtrAccessBatches, 1)
	h.rec.Add(obs.CtrAccesses, uint64(len(batch)))
	h.rec.AddNamed("batches/"+rec.Name, 1)
	sp.End()
}

// obsSink reports into a recorder from the access-sink callbacks — silent
// for the same reason.
type obsSink struct{ node *obs.Node }

var _ trace.BatchAccessSink = (*obsSink)(nil)

func (s *obsSink) ObjectAccess(o *trace.Object, rec *gpu.APIRecord, a gpu.MemAccess) {
	s.node.Record(0)
}

func (s *obsSink) ObjectAccessRun(o *trace.Object, rec *gpu.APIRecord, run []gpu.MemAccess) {
	s.node.Child("run").Record(0)
}

// launchElsewhere is not a hook; mutating calls are its business — silent.
func launchElsewhere(dev *gpu.Device) error {
	ptr, err := dev.Malloc(128)
	if err != nil {
		return err
	}
	return dev.Free(ptr)
}
