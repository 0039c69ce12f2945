package workloads

import (
	"fmt"
	"math"

	"drgpum/internal/gpu"
)

// CUDA SDK particles: an explicit-Euler integration step over a particle
// system stored as an array of structs. Each 32-byte particle record packs
// eight f32 fields, but the integrator touches only two of them (position
// and velocity) — so consecutive lanes load from addresses one full record
// apart and each warp drags in ~11 distinct 32-byte sectors where a packed
// layout would need 4. The waste is pure traffic: every record is h2d'd,
// integrated, and d2h'd back-to-back, so none of the paper's footprint or
// lifetime patterns fire (the six cold fields per record are individually
// scattered, which the fragmentation rule of §3.2 recognizes as
// non-actionable overallocation). Only the cost model's uncoalesced-access
// detector (DESIGN.md §4.9) flags the run.
//
// Patterns (Table 1): none of the paper's ten; UC on the particle array.
//
// The optimized variant applies the classic AoS-to-SoA fix: the two hot
// fields move into a packed dynamics block ([pos | vel], unit-stride for
// the integrator) and the six cold fields into a separate carry-through
// block the kernel never touches. Total footprint is unchanged — the fix
// saves cycles, not bytes — so the advisor's predicted peak reduction of
// 0% matches the measured one.
const (
	ptN      = 1024 // particle count
	ptFields = 8    // f32 fields per record (2 hot + 6 cold)
	ptDT     = 0.25 // integration step
)

func init() {
	register(&Workload{
		Name:         "sdk/particles",
		Domain:       "Particle simulation",
		IntraKernels: []string{"integrate_aos", "integrate_soa"},
		Run:          runParticles,
	})
}

// ptInputs builds deterministic initial positions, velocities and the six
// cold per-particle attributes (mass, charge, ...).
func ptInputs() (pos, vel []float32, cold []float32) {
	rng := xorshift32(0x9a27)
	pos = make([]float32, ptN)
	vel = make([]float32, ptN)
	cold = make([]float32, ptN*(ptFields-2))
	for i := 0; i < ptN; i++ {
		pos[i] = float32(rng.nextF64()) * 100
		vel[i] = float32(rng.nextF64()) - 0.5
	}
	for i := range cold {
		cold[i] = float32(rng.nextF64())
	}
	return pos, vel, cold
}

func runParticles(dev *gpu.Device, host Host, v Variant) error {
	pos, vel, cold := ptInputs()
	var err error
	if v == VariantNaive {
		err = runParticlesAoS(dev, host, pos, vel, cold)
	} else {
		err = runParticlesSoA(dev, host, pos, vel, cold)
	}
	return err
}

// runParticlesAoS is the naive layout: one interleaved record array.
func runParticlesAoS(dev *gpu.Device, host Host, pos, vel, cold []float32) error {
	r := newRunner(dev, host)
	recBytes := ptFields * 4
	aos := make([]float32, ptN*ptFields)
	for i := 0; i < ptN; i++ {
		aos[i*ptFields] = pos[i]
		aos[i*ptFields+1] = vel[i]
		copy(aos[i*ptFields+2:(i+1)*ptFields], cold[i*(ptFields-2):(i+1)*(ptFields-2)])
	}

	particles := r.malloc("particles", uint64(ptN*recBytes), 4)
	r.h2d(particles, f32bytes(aos), nil)
	// Each iteration touches fields 0 and 1 of a 32-byte record: the access
	// stream strides one full record between consecutive particles.
	r.launch("integrate_aos", nil, gpu.Dim1(ptN/256), gpu.Dim1(256), func(ctx *gpu.ExecContext) {
		for i := 0; i < ptN; i++ {
			base := particles + gpu.DevicePtr(i*recBytes)
			p := ctx.LoadF32(base)
			q := ctx.LoadF32(base + 4)
			ctx.StoreF32(base, p+q*ptDT)
		}
	})
	got := make([]byte, ptN*recBytes)
	r.d2h(got, particles, nil)
	r.free(particles)

	if r.Err() == nil {
		for i := 0; i < ptN; i++ {
			if err := ptCheck(i, getF32(got[i*recBytes:]), pos[i], vel[i]); err != nil {
				return err
			}
			if g, want := getF32(got[i*recBytes+8:]), cold[i*(ptFields-2)]; g != want {
				return fmt.Errorf("particles: cold field clobbered at %d: %g != %g", i, g, want)
			}
		}
	}
	return r.Err()
}

// runParticlesSoA is the optimized layout: a packed dynamics block holding
// pos then vel, plus a cold carry-through block the kernel never reads.
func runParticlesSoA(dev *gpu.Device, host Host, pos, vel, cold []float32) error {
	r := newRunner(dev, host)
	dynBytes := uint64(2 * ptN * 4)
	coldBytes := uint64(ptN * (ptFields - 2) * 4)

	dynHost := make([]float32, 2*ptN)
	copy(dynHost[:ptN], pos)
	copy(dynHost[ptN:], vel)

	dyn := r.malloc("dynamics", dynBytes, 4)
	r.h2d(dyn, f32bytes(dynHost), nil)
	carry := r.malloc("cold_attrs", coldBytes, 4)
	r.h2d(carry, f32bytes(cold), nil)
	// Unit-stride over both halves of the dynamics block.
	velBase := dyn + gpu.DevicePtr(ptN*4)
	r.launch("integrate_soa", nil, gpu.Dim1(ptN/256), gpu.Dim1(256), func(ctx *gpu.ExecContext) {
		for i := 0; i < ptN; i++ {
			p := ctx.LoadF32(dyn + gpu.DevicePtr(i*4))
			q := ctx.LoadF32(velBase + gpu.DevicePtr(i*4))
			ctx.StoreF32(dyn+gpu.DevicePtr(i*4), p+q*ptDT)
		}
	})
	coldOut := make([]byte, coldBytes)
	r.d2h(coldOut, carry, nil)
	r.free(carry)
	dynOut := make([]byte, dynBytes)
	r.d2h(dynOut, dyn, nil)
	r.free(dyn)

	if r.Err() == nil {
		for i := 0; i < ptN; i++ {
			if err := ptCheck(i, getF32(dynOut[i*4:]), pos[i], vel[i]); err != nil {
				return err
			}
		}
		for i := range cold {
			if g := getF32(coldOut[i*4:]); g != cold[i] {
				return fmt.Errorf("particles: cold attr %d corrupted in transit: %g != %g", i, g, cold[i])
			}
		}
	}
	return r.Err()
}

// ptCheck verifies one integrated position against the host reference.
func ptCheck(i int, got, p, v float32) error {
	want := p + v*ptDT
	if math.Abs(float64(got-want)) > 1e-5 {
		return fmt.Errorf("particles: pos[%d] = %g, want %g", i, got, want)
	}
	return nil
}
