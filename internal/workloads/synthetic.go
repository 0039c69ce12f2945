package workloads

import "drgpum/internal/gpu"

// Synthetic returns the kitchen-sink program: a single trace exhibiting all
// ten of the paper's inefficiency patterns — plus the repo's
// uncoalesced-access extension — at once. It is not part of the
// evaluated suite (it is not registered, so the Table 1/4 harnesses never
// see it); it exists as an executable specification of §3 — profiling it at
// intra-object granularity must yield every pattern — and as the canonical
// end-to-end fixture for pipeline tests.
//
// Pattern inventory (object in parentheses):
//
//	EA   out        allocated in the setup batch, first touched much later
//	LD   in         freed at exit although its last access is the kernel
//	RA   stage2     equal-sized scratch whose window starts after stage1's
//	UA   ghost      never touched
//	ML   persist    never freed
//	TI   warm       staged early, re-read only after a long foreign phase
//	DW   in         memset immediately overwritten by the host copy
//	OA   sparse     kernels touch only its leading elements
//	NUAF skew       element i is read i+1 times by the triangle kernel
//	SA   sliced     each slicer instance writes one disjoint contiguous row
//	UC   grid       the colmajor kernel walks a 64x64 grid column-major
//	                (repo extension beyond the paper's ten, DESIGN.md §4.9)
func Synthetic() *Workload {
	return &Workload{
		Name:         "synthetic/kitchen-sink",
		Domain:       "Executable specification",
		IntraKernels: []string{"triangle", "slicer", "sparse_touch"},
		Run:          runSynthetic,
	}
}

const (
	synVec    = 4096 // bytes of the small vectors
	synSparse = 64 << 10
	synSlice  = 1024 // bytes per slicer row
	synSlices = 8
	synGrid   = 64 // the UC grid is synGrid x synGrid f32 elements
)

func runSynthetic(dev *gpu.Device, host Host, v Variant) error {
	r := newRunner(dev, host)
	_ = v // the kitchen sink has no optimized variant: it IS the bug list

	// Setup batch (EA for everything allocated ahead of first use).
	in := r.malloc("in", synVec, 4)
	out := r.malloc("out", synVec, 4)
	warm := r.malloc("warm", synVec, 4)
	ghost := r.malloc("ghost", 2*synVec, 4) // UA
	persist := r.malloc("persist", synVec, 4)
	skew := r.malloc("skew", synVec, 4)
	sparse := r.malloc("sparse", synSparse, 4)
	sliced := r.malloc("sliced", synSlices*synSlice, 4)
	stage1 := r.malloc("stage1", synVec, 4)
	_ = ghost

	// DW: zero-fill then overwrite wholesale.
	r.memset(in, 0, synVec, nil)
	payload := make([]byte, synVec)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	r.h2d(in, payload, nil)

	// TI setup: warm staged now, re-read only after the foreign phase.
	r.h2d(warm, payload, nil)
	r.h2d(skew, payload, nil)

	// stage1's whole life happens here.
	r.launch("stage", nil, gpu.Dim1(1), gpu.Dim1(64), func(ctx *gpu.ExecContext) {
		for i := 0; i < synVec/4; i++ {
			ctx.StoreU32(stage1+gpu.DevicePtr(i*4), ctx.LoadU32(in+gpu.DevicePtr(i*4))+1)
		}
	})

	// NUAF: triangle read pattern over skew (element i read i+1 times).
	r.launch("triangle", nil, gpu.Dim1(1), gpu.Dim1(64), func(ctx *gpu.ExecContext) {
		var acc uint32
		for i := 0; i < synVec/4; i++ {
			for k := 0; k <= i%64; k++ { // capped triangle keeps it cheap
				acc += ctx.LoadU32(skew + gpu.DevicePtr(i*4))
			}
			ctx.Compute(1)
		}
		ctx.StoreU32(persist, acc) // persist written, never freed (ML)
	})

	// OA: only the first 64 of 16384 elements of sparse are touched.
	r.launch("sparse_touch", nil, gpu.Dim1(1), gpu.Dim1(64), func(ctx *gpu.ExecContext) {
		for i := 0; i < 64; i++ {
			ctx.StoreU32(sparse+gpu.DevicePtr(i*4), uint32(i))
		}
	})

	// SA: one disjoint contiguous row per slicer instance.
	for s := 0; s < synSlices; s++ {
		base := sliced + gpu.DevicePtr(s*synSlice)
		r.launch("slicer", nil, gpu.Dim1(1), gpu.Dim1(32), func(ctx *gpu.ExecContext) {
			for i := 0; i < synSlice/4; i++ {
				ctx.StoreU32(base+gpu.DevicePtr(i*4), uint32(i))
			}
		})
	}

	// RA: stage2's window starts only now; same size as stage1.
	stage2 := r.malloc("stage2", synVec, 4)
	r.launch("stage", nil, gpu.Dim1(1), gpu.Dim1(64), func(ctx *gpu.ExecContext) {
		for i := 0; i < synVec/4; i++ {
			ctx.StoreU32(stage2+gpu.DevicePtr(i*4), 7)
		}
	})

	// UC: a column-major walk over a 64x64 grid — consecutive accesses
	// stride one row apart, so each warp touches 32 distinct sectors where
	// a row-major walk would touch 4. Allocated immediately before its only
	// kernel and freed immediately after, every element written exactly
	// once: no lifetime or footprint pattern fires, only the cost model's
	// uncoalesced-access detector.
	grid := r.malloc("grid", synGrid*synGrid*4, 4)
	r.launch("colmajor", nil, gpu.Dim1(1), gpu.Dim1(64), func(ctx *gpu.ExecContext) {
		for j := 0; j < synGrid; j++ {
			for i := 0; i < synGrid; i++ {
				ctx.StoreU32(grid+gpu.DevicePtr((i*synGrid+j)*4), uint32(i^j))
			}
		}
	})
	r.free(grid)

	// out's first touch (EA paid off) and warm's re-read (TI window closed).
	r.launch("finish", nil, gpu.Dim1(1), gpu.Dim1(64), func(ctx *gpu.ExecContext) {
		for i := 0; i < synVec/4; i++ {
			a := ctx.LoadU32(in + gpu.DevicePtr(i*4))
			b := ctx.LoadU32(warm + gpu.DevicePtr(i*4))
			ctx.StoreU32(out+gpu.DevicePtr(i*4), a+b)
		}
	})

	sink := make([]byte, synVec)
	r.d2h(sink, out, nil)

	// Exit batch: late frees (LD); ghost freed unused (UA); persist leaked
	// (ML).
	r.free(in)
	r.free(out)
	r.free(warm)
	r.free(ghost)
	r.free(skew)
	r.free(sparse)
	r.free(sliced)
	r.free(stage1)
	r.free(stage2)
	return r.Err()
}
