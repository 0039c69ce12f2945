package gpu

import (
	"encoding/binary"
	"math"
	"sort"

	"drgpum/internal/costmodel"
)

// Kernel is simulated device code. Run is invoked once per launch and must
// perform all of the kernel's memory traffic through the ExecContext so the
// instrumentation layer can observe it.
type Kernel interface {
	// Name identifies the kernel in traces and reports (the mangled-symbol
	// analog).
	Name() string
	// Run executes the kernel body.
	Run(ctx *ExecContext)
}

// KernelFunc adapts a function to the Kernel interface.
type KernelFunc struct {
	// KernelName is the reported kernel name.
	KernelName string
	// Body is the kernel body.
	Body func(ctx *ExecContext)
}

// Name returns the kernel name.
func (k KernelFunc) Name() string { return k.KernelName }

// Run invokes the body.
func (k KernelFunc) Run(ctx *ExecContext) { k.Body(ctx) }

// hitEntry is one row of the device-resident object table of paper Figure 5:
// an address range plus read/write hit flags.
type hitEntry struct {
	rng      Range
	readHit  bool
	writeHit bool
}

// ExecContext is the device-side execution environment handed to a kernel.
// All loads and stores must go through it; it performs bounds resolution,
// charges the cost model, maintains hit flags (object-level analysis) and
// streams access records (intra-object analysis).
type ExecContext struct {
	dev *Device
	rec *APIRecord

	grid  Dim3
	block Dim3

	// snapshot of the memory map at launch time, sorted by address.
	table []hitEntry
	// lastEntry is the table row of the previous access, so the common
	// case (repeated access to the same object) avoids re-searching.
	lastEntry int

	instrumented bool
	hostTrace    bool // ObjectIDHostTrace mode: ship every access to the host

	// cost, when non-nil, is the device's cost-model tracker, reset for
	// this launch: it runs the memory-hierarchy cost model over the
	// launch's accesses, keyed by hit-table entry (see Device.SetCostModel).
	cost *costmodel.Tracker

	shared []byte

	accessCycles  uint64
	computeCycles uint64
}

// Grid returns the launch grid dimensions.
func (c *ExecContext) Grid() Dim3 { return c.grid }

// Block returns the launch block dimensions.
func (c *ExecContext) Block() Dim3 { return c.block }

// Threads returns the total number of threads in the launch.
func (c *ExecContext) Threads() int { return c.grid.Count() * c.block.Count() }

// Compute charges pure-ALU work to the kernel's simulated duration. Kernels
// use it to model the non-memory part of their cost so that memory
// optimizations produce realistic (not unbounded) speedups.
func (c *ExecContext) Compute(cycles uint64) { c.computeCycles += cycles }

// ComputeF32 charges n single-precision operations at the device's FP32
// rate.
func (c *ExecContext) ComputeF32(n uint64) { c.computeCycles += n * c.dev.spec.FP32Cycles }

// ComputeF64 charges n double-precision operations at the device's FP64
// rate.
func (c *ExecContext) ComputeF64(n uint64) { c.computeCycles += n * c.dev.spec.FP64Cycles }

// SharedAlloc reserves n bytes of per-launch shared memory and returns its
// base offset. Shared memory is zero-initialized and discarded at kernel end.
func (c *ExecContext) SharedAlloc(n int) int {
	off := len(c.shared)
	c.shared = append(c.shared, make([]byte, n)...)
	return off
}

// findEntry locates the hit-table row containing addr, mimicking the binary
// search the paper performs on the device (Figure 5). Returns -1 if the
// address is not inside any live object.
func (c *ExecContext) findEntry(addr DevicePtr) int {
	// Fast path: same object as the previous access.
	if c.lastEntry >= 0 && c.lastEntry < len(c.table) && c.table[c.lastEntry].rng.Contains(addr) {
		return c.lastEntry
	}
	i := sort.Search(len(c.table), func(i int) bool { return c.table[i].rng.Addr > addr })
	if i == 0 {
		return -1
	}
	if c.table[i-1].rng.Contains(addr) {
		c.lastEntry = i - 1
		return i - 1
	}
	return -1
}

// access performs bookkeeping common to every load/store and returns the
// backing slice for the accessed bytes (nil on an out-of-bounds access).
func (c *ExecContext) access(addr DevicePtr, size uint32, kind AccessKind) []byte {
	return c.accessVal(addr, size, kind, 0, false)
}

// accessVal is access with an optional store value attached to the emitted
// record, so value-aware tools (the ValueExpert baseline) can observe the
// data stream without a second instrumentation pass.
func (c *ExecContext) accessVal(addr DevicePtr, size uint32, kind AccessKind, val uint64, hasVal bool) []byte {
	c.accessCycles += c.dev.spec.GlobalLatency
	b := c.dev.alloc.lookup(addr)
	var data []byte
	if b == nil || uint64(addr-b.addr)+uint64(size) > b.req {
		c.rec.Faults = append(c.rec.Faults, Fault{Addr: addr, Size: size, Kind: kind})
	} else {
		off := addr - b.addr
		data = b.data[off : uint64(off)+uint64(size)]
	}

	if c.dev.patch == PatchNone {
		return data
	}
	if c.hostTrace || c.instrumented {
		c.dev.pushAccess(c.rec, MemAccess{Addr: addr, Size: size, Kind: kind, Space: SpaceGlobal, Value: val, HasValue: hasVal})
	}
	if !c.hostTrace {
		if i := c.findEntry(addr); i >= 0 {
			if kind == AccessRead {
				c.table[i].readHit = true
			} else {
				c.table[i].writeHit = true
			}
			if c.cost != nil {
				c.cost.Access(i, uint64(addr), size)
			}
		}
	}
	return data
}

// sharedAccess charges and (at PatchFull) records a shared-memory access.
func (c *ExecContext) sharedAccess(off int, size uint32, kind AccessKind) {
	c.accessCycles += c.dev.spec.SharedLatency
	if c.instrumented {
		c.dev.pushAccess(c.rec, MemAccess{Addr: DevicePtr(off), Size: size, Kind: kind, Space: SpaceShared})
	}
}

// Read copies len(buf) bytes from device memory into buf. Out-of-bounds
// reads yield zeros and record a fault.
func (c *ExecContext) Read(addr DevicePtr, buf []byte) {
	data := c.access(addr, uint32(len(buf)), AccessRead)
	if data != nil {
		copy(buf, data)
	} else {
		for i := range buf {
			buf[i] = 0
		}
	}
}

// Write copies buf into device memory. Out-of-bounds writes are dropped and
// record a fault.
func (c *ExecContext) Write(addr DevicePtr, buf []byte) {
	data := c.access(addr, uint32(len(buf)), AccessWrite)
	if data != nil {
		copy(data, buf)
	}
}

// LoadF64 loads a float64 from device memory.
func (c *ExecContext) LoadF64(addr DevicePtr) float64 {
	data := c.access(addr, 8, AccessRead)
	if data == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(data))
}

// StoreF64 stores a float64 to device memory.
func (c *ExecContext) StoreF64(addr DevicePtr, v float64) {
	data := c.accessVal(addr, 8, AccessWrite, math.Float64bits(v), true)
	if data != nil {
		binary.LittleEndian.PutUint64(data, math.Float64bits(v))
	}
}

// LoadF32 loads a float32 from device memory.
func (c *ExecContext) LoadF32(addr DevicePtr) float32 {
	data := c.access(addr, 4, AccessRead)
	if data == nil {
		return 0
	}
	return math.Float32frombits(binary.LittleEndian.Uint32(data))
}

// StoreF32 stores a float32 to device memory.
func (c *ExecContext) StoreF32(addr DevicePtr, v float32) {
	data := c.accessVal(addr, 4, AccessWrite, uint64(math.Float32bits(v)), true)
	if data != nil {
		binary.LittleEndian.PutUint32(data, math.Float32bits(v))
	}
}

// LoadU32 loads a uint32 from device memory.
func (c *ExecContext) LoadU32(addr DevicePtr) uint32 {
	data := c.access(addr, 4, AccessRead)
	if data == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(data)
}

// StoreU32 stores a uint32 to device memory.
func (c *ExecContext) StoreU32(addr DevicePtr, v uint32) {
	data := c.accessVal(addr, 4, AccessWrite, uint64(v), true)
	if data != nil {
		binary.LittleEndian.PutUint32(data, v)
	}
}

// LoadU8 loads one byte from device memory.
func (c *ExecContext) LoadU8(addr DevicePtr) byte {
	data := c.access(addr, 1, AccessRead)
	if data == nil {
		return 0
	}
	return data[0]
}

// StoreU8 stores one byte to device memory.
func (c *ExecContext) StoreU8(addr DevicePtr, v byte) {
	data := c.accessVal(addr, 1, AccessWrite, uint64(v), true)
	if data != nil {
		data[0] = v
	}
}

// SharedLoadF64 loads a float64 from shared memory at byte offset off.
func (c *ExecContext) SharedLoadF64(off int) float64 {
	c.sharedAccess(off, 8, AccessRead)
	return math.Float64frombits(binary.LittleEndian.Uint64(c.shared[off:]))
}

// SharedStoreF64 stores a float64 to shared memory at byte offset off.
func (c *ExecContext) SharedStoreF64(off int, v float64) {
	c.sharedAccess(off, 8, AccessWrite)
	binary.LittleEndian.PutUint64(c.shared[off:], math.Float64bits(v))
}

// SharedLoadF32 loads a float32 from shared memory at byte offset off.
func (c *ExecContext) SharedLoadF32(off int) float32 {
	c.sharedAccess(off, 4, AccessRead)
	return math.Float32frombits(binary.LittleEndian.Uint32(c.shared[off:]))
}

// SharedStoreF32 stores a float32 to shared memory at byte offset off.
func (c *ExecContext) SharedStoreF32(off int, v float32) {
	c.sharedAccess(off, 4, AccessWrite)
	binary.LittleEndian.PutUint32(c.shared[off:], math.Float32bits(v))
}

// pushAccess appends an access to the simulated device-side buffer, flushing
// to hooks when it fills (paper §5.5: records are copied to the CPU when the
// buffer is full).
func (d *Device) pushAccess(rec *APIRecord, a MemAccess) {
	d.batch = append(d.batch, a)
	if len(d.batch) == cap(d.batch) {
		d.flushAccesses(rec)
	}
}

// flushAccesses delivers the buffered accesses to hooks and resets the
// buffer.
func (d *Device) flushAccesses(rec *APIRecord) {
	if len(d.batch) == 0 {
		return
	}
	for _, h := range d.hooks {
		h.OnAccessBatch(rec, d.batch)
	}
	d.batch = d.batch[:0]
}

// Launch runs a kernel on the given stream (nil means the default stream).
// The launch is "asynchronous" in the simulated-clock sense: it only advances
// its own stream's clock. The kernel body executes immediately on the calling
// goroutine, which keeps the simulator deterministic.
func (d *Device) Launch(stream *Stream, k Kernel, grid, block Dim3) error {
	if stream == nil {
		stream = d.defaultStream
	}
	rec := d.newRecord(APIKernel, k.Name(), stream.id)
	rec.Grid, rec.Block = grid, block

	launchNo := d.kernelLaunch[k.Name()]
	d.kernelLaunch[k.Name()] = launchNo + 1

	ctx := &ExecContext{
		dev:       d,
		rec:       rec,
		grid:      grid,
		block:     block,
		lastEntry: -1,
	}
	if d.patch >= PatchAPI {
		if d.objectID == ObjectIDHostTrace {
			ctx.hostTrace = true
		} else {
			// "Copy M to the GPU at each kernel launch and associate each
			// entry with a hit flag" (paper Figure 5).
			var live []Range
			if d.liveRanges != nil {
				live = d.liveRanges()
			} else {
				live = d.alloc.Live()
			}
			ctx.table = make([]hitEntry, len(live))
			for i, r := range live {
				ctx.table[i] = hitEntry{rng: r}
			}
			if d.costTracker != nil && len(ctx.table) > 0 {
				d.costTracker.Reset(len(ctx.table))
				ctx.cost = d.costTracker
			}
		}
		if d.patch == PatchFull {
			ctx.instrumented = d.instrument == nil || d.instrument(k.Name(), launchNo)
			rec.Instrumented = ctx.instrumented
		}
	}

	k.Run(ctx)
	d.flushAccesses(rec)

	if d.patch >= PatchAPI {
		if ctx.hostTrace {
			// In host-trace mode the hooks saw every access; Reads/Writes
			// stay empty here and the collector reconstructs object touches
			// itself (that reconstruction cost is the point of the mode).
		} else {
			for _, e := range ctx.table {
				if e.readHit {
					rec.Reads = append(rec.Reads, e.rng)
				}
				if e.writeHit {
					rec.Writes = append(rec.Writes, e.rng)
				}
			}
		}
	}

	if ctx.cost != nil {
		rec.Cost = ctx.cost.Finish(func(i int) uint64 { return uint64(ctx.table[i].rng.Addr) })
	}

	cost := d.spec.LaunchCycles + ctx.accessCycles + ctx.computeCycles
	rec.StartCycle, rec.EndCycle = d.streamOp(stream, cost)
	d.emit(rec)
	return nil
}

// LaunchFunc is a convenience wrapper launching a plain function as a kernel.
func (d *Device) LaunchFunc(stream *Stream, name string, grid, block Dim3, body func(ctx *ExecContext)) error {
	return d.Launch(stream, KernelFunc{KernelName: name, Body: body}, grid, block)
}
