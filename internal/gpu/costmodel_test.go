package gpu

import (
	"reflect"
	"testing"

	"drgpum/internal/costmodel"
)

// TestCostModelTrackerReuse pins the device's one reused tracker to a
// fresh costmodel.NewTracker per launch fed the same stream: launches
// over hit tables that grow and shrink, with the model switched off,
// back on and re-set mid-run, must carry the same APIRecord.Cost either
// way.
func TestCostModelTrackerReuse(t *testing.T) {
	dev := NewDevice(SpecTest())
	h := &recordingHook{}
	dev.AddHook(h)
	dev.SetPatchLevel(PatchAPI)
	dev.SetCostModel(costmodel.Spec{})
	spec, _ := dev.CostModelSpec()
	refL2 := costmodel.NewCache(spec.L2Sets, spec.L2Ways)

	x := uint64(3)
	rnd := func(n int) int { x = splitmix64(x); return int(x % uint64(n)) }
	type access struct {
		addr DevicePtr
		size uint32
	}
	var live []DevicePtr
	sizes := map[DevicePtr]uint64{}
	costed, sawShrink := 0, false
	for launch := 0; launch < 40; launch++ {
		// Grow the table most launches; every fourth, free half of it.
		if launch%4 == 3 && len(live) > 1 {
			for _, p := range live[:len(live)/2] {
				if err := dev.Free(p); err != nil {
					t.Fatal(err)
				}
				delete(sizes, p)
			}
			live = live[len(live)/2:]
			sawShrink = true
		} else {
			for range 1 + rnd(3) {
				n := uint64(256 + rnd(8192))
				p, err := dev.Malloc(n)
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, p)
				sizes[p] = n
			}
		}
		switch launch {
		case 17:
			dev.DisableCostModel()
		case 23, 31: // re-enable, then re-set while on: both start a cold L2
			dev.SetCostModel(spec)
			refL2 = costmodel.NewCache(spec.L2Sets, spec.L2Ways)
		}
		on := launch < 17 || launch >= 23

		table := dev.alloc.Live()
		var stream []access
		_ = dev.LaunchFunc(nil, "k", Dim1(1), Dim1(32), func(ctx *ExecContext) {
			for range 200 + rnd(400) {
				p := live[rnd(len(live))]
				var off uint64
				switch rnd(3) {
				case 0: // unit stride
					off = uint64(len(stream)*4) % (sizes[p] - 8)
				case 1: // strided
					off = uint64(len(stream)*132) % (sizes[p] - 8)
				default: // scattered
					off = uint64(rnd(int(sizes[p] - 8)))
				}
				if rnd(2) == 0 {
					ctx.LoadF64(p + DevicePtr(off))
					stream = append(stream, access{p + DevicePtr(off), 8})
				} else {
					ctx.StoreF32(p+DevicePtr(off), 1)
					stream = append(stream, access{p + DevicePtr(off), 4})
				}
			}
		})
		rec := h.apis[len(h.apis)-1]

		var want *costmodel.KernelCost
		if on {
			tr := costmodel.NewTracker(spec, refL2, len(table))
			for _, a := range stream {
				for i, r := range table {
					if r.Contains(a.addr) {
						tr.Access(i, uint64(a.addr), a.size)
						break
					}
				}
			}
			want = tr.Finish(func(i int) uint64 { return uint64(table[i].Addr) })
			costed++
		}
		if !reflect.DeepEqual(rec.Cost, want) {
			t.Fatalf("launch %d (%d objects, model on=%v): device cost\n%+v\nfresh tracker\n%+v",
				launch, len(table), on, rec.Cost, want)
		}
	}
	if costed < 30 || !sawShrink {
		t.Fatalf("stream too thin: %d costed launches, shrink=%v", costed, sawShrink)
	}
}
