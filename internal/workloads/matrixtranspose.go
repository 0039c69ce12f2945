package workloads

import (
	"fmt"

	"drgpum/internal/gpu"
)

// CUDA SDK matrixTranspose: out = inᵀ over a square f32 matrix. The naive
// kernel walks the input row-major and therefore writes the output
// column-major — consecutive lanes store one full row apart, so each warp
// of stores touches 32 distinct 32-byte sectors where a coalesced kernel
// would touch 4. No footprint or lifetime pattern fires: every byte is
// touched exactly once and every object is allocated immediately before
// its first use and freed immediately after its last. Only the cost
// model's uncoalesced-access detector (DESIGN.md §4.9) flags the run,
// which is precisely the point of this workload: a program whose memory
// problem is traffic, not footprint.
//
// Patterns (Table 1): none of the paper's ten; UC on the output matrix.
//
// The optimized variant is the SDK's classic fix — stage 32x32 tiles
// through shared memory so both the global loads and the global stores
// are unit-stride. Footprint is identical (the fix saves cycles, not
// bytes), so the advisor's predicted peak reduction of 0% matches the
// measured one.
const mtN = 64 // matrix is mtN x mtN float32

func init() {
	register(&Workload{
		Name:         "sdk/matrixtranspose",
		Domain:       "Linear algebra",
		IntraKernels: []string{"transpose_naive", "transpose_tiled"},
		Run:          runMatrixTranspose,
	})
}

// mtInputs builds the deterministic input matrix.
func mtInputs() []float32 {
	rng := xorshift32(0x7a95)
	vals := make([]float32, mtN*mtN)
	for i := range vals {
		vals[i] = float32(rng.nextF64()) - 0.5
	}
	return vals
}

func runMatrixTranspose(dev *gpu.Device, host Host, v Variant) error {
	r := newRunner(dev, host)
	vals := mtInputs()
	matBytes := uint64(mtN * mtN * 4)

	in := r.malloc("mat_in", matBytes, 4)
	r.h2d(in, f32bytes(vals), nil)
	out := r.malloc("mat_out", matBytes, 4)

	if v == VariantNaive {
		// Row-major reads, column-major writes: the store stream strides
		// one row (mtN*4 bytes) between consecutive accesses.
		r.launch("transpose_naive", nil, gpu.Dim1(mtN/32), gpu.Dim1(32), func(ctx *gpu.ExecContext) {
			for i := 0; i < mtN; i++ {
				for j := 0; j < mtN; j++ {
					x := ctx.LoadF32(in + gpu.DevicePtr((i*mtN+j)*4))
					ctx.StoreF32(out+gpu.DevicePtr((j*mtN+i)*4), x)
				}
			}
		})
	} else {
		// Tiled: each 32x32 tile is read row-major into shared memory and
		// written back row-major from its transpose, so both global
		// streams are unit-stride.
		const tile = 32
		r.launch("transpose_tiled", nil, gpu.Dim1(mtN/32), gpu.Dim1(32), func(ctx *gpu.ExecContext) {
			sh := ctx.SharedAlloc(tile * tile * 4)
			for ti := 0; ti < mtN/tile; ti++ {
				for tj := 0; tj < mtN/tile; tj++ {
					for rr := 0; rr < tile; rr++ {
						for cc := 0; cc < tile; cc++ {
							x := ctx.LoadF32(in + gpu.DevicePtr(((ti*tile+rr)*mtN+tj*tile+cc)*4))
							ctx.SharedStoreF32(sh+(rr*tile+cc)*4, x)
						}
					}
					for rr := 0; rr < tile; rr++ {
						for cc := 0; cc < tile; cc++ {
							x := ctx.SharedLoadF32(sh + (cc*tile+rr)*4)
							ctx.StoreF32(out+gpu.DevicePtr(((tj*tile+rr)*mtN+ti*tile+cc)*4), x)
						}
					}
				}
			}
		})
	}
	r.free(in)

	got := make([]byte, matBytes)
	r.d2h(got, out, nil)
	r.free(out)

	if r.Err() == nil {
		for i := 0; i < mtN; i++ {
			for j := 0; j < mtN; j++ {
				if g, want := getF32(got[(j*mtN+i)*4:]), vals[i*mtN+j]; g != want {
					return fmt.Errorf("matrixtranspose: out[%d,%d] = %g, want %g", j, i, g, want)
				}
			}
		}
	}
	return r.Err()
}
