// Package costmodel implements a deterministic, closed-form memory-
// hierarchy cost model for the simulated GPU (DESIGN.md §4.9).
//
// The model converts the per-object access streams the simulator already
// records into the quantities that dominate realized GPU memory cost:
//
//   - per-warp access coalescing: every 32 consecutive accesses to one
//     data object form one warp-instruction group, folded into the
//     distinct 32-byte sectors (DRAM transactions) and 128-byte lines
//     (cache blocks) they touch;
//   - a small set-associative L1/L2 hit model with deterministic LRU
//     replacement, probed once per sector transaction at line
//     granularity (the L1 is flushed per kernel launch, the L2 persists
//     across launches);
//   - TLB-reach estimation from allocation layout (pages spanned vs the
//     reach of one TLB fill).
//
// Everything is integer arithmetic over the recorded addresses — no
// clocks, no randomness — so the model is byte-identical across the
// offline and streaming profiling modes: the simulator executes kernel
// bodies synchronously on the calling goroutine in every mode, and the
// device's one tracker only ever runs there.
//
// The package is deliberately pure: it knows nothing about the gpu or
// trace packages (addresses are plain uint64), which is what lets the
// device's hot access path embed a Tracker without an import cycle.
package costmodel

import (
	"math/bits"
	"slices"
)

// Spec parameterizes the cost model for one device. The zero value is
// not usable; obtain one from SpecFor so every field is populated (the
// profiler treats a zero SectorBytes as "derive from the device").
type Spec struct {
	// SectorBytes is the DRAM transaction granularity (32 on NVIDIA
	// hardware): a warp's accesses cost one transaction per distinct
	// sector they touch.
	SectorBytes uint64
	// LineBytes is the cache-line granularity (128): the unit the L1/L2
	// hit model tracks.
	LineBytes uint64
	// WarpSize is the number of consecutive same-object accesses folded
	// into one coalescing group (32).
	WarpSize int

	// L1Sets/L1Ways and L2Sets/L2Ways shape the two set-associative
	// caches. L1 capacity = L1Sets * L1Ways * LineBytes, likewise L2.
	L1Sets, L1Ways int
	L2Sets, L2Ways int

	// L1HitCycles, L2HitCycles and DRAMCycles are the per-transaction
	// latencies charged at each level of the hierarchy.
	L1HitCycles uint64
	L2HitCycles uint64
	DRAMCycles  uint64

	// TLBEntries and PageBytes define the reach of one TLB fill
	// (TLBEntries * PageBytes); TLBMissCycles is the per-page walk cost
	// charged when an allocation layout exceeds that reach.
	TLBEntries    int
	PageBytes     uint64
	TLBMissCycles uint64

	// CopyBytesPerCycle mirrors the device's copy bandwidth and is used
	// by the byte→cycle closed forms for lifetime findings (DESIGN.md
	// §4.9).
	CopyBytesPerCycle uint64
	// MallocCycles and FreeCycles mirror the device's allocation API
	// costs, used by the closed forms for redundant/unused allocations.
	MallocCycles uint64
	FreeCycles   uint64
}

// SpecFor derives a model Spec from the simulated device's parameters.
// deviceName selects the cache/TLB geometry (matched by substring, with
// a conservative default); globalLatency becomes the DRAM transaction
// latency and the hit latencies scale from it; copyBW, mallocCycles and
// freeCycles carry the device's existing cost knobs into the closed
// forms.
func SpecFor(deviceName string, globalLatency, copyBW, mallocCycles, freeCycles uint64) Spec {
	s := Spec{
		SectorBytes:       32,
		LineBytes:         128,
		WarpSize:          32,
		L1Sets:            64,
		L1Ways:            4,
		L2Sets:            256,
		L2Ways:            8,
		TLBEntries:        16,
		PageBytes:         64 << 10,
		CopyBytesPerCycle: copyBW,
		MallocCycles:      mallocCycles,
		FreeCycles:        freeCycles,
	}
	switch {
	case contains(deviceName, "A100"):
		s.L1Sets, s.L1Ways = 128, 4 // 64 KiB L1
		s.L2Sets, s.L2Ways = 512, 8 // 512 KiB L2
		s.TLBEntries = 32
	case contains(deviceName, "3090"):
		// defaults above: 32 KiB L1, 256 KiB L2, 1 MiB TLB reach
	case contains(deviceName, "test"), contains(deviceName, "Test"):
		s.L1Sets, s.L1Ways = 8, 2
		s.L2Sets, s.L2Ways = 32, 4
		s.TLBEntries = 4
	}
	if globalLatency == 0 {
		globalLatency = 400
	}
	s.DRAMCycles = globalLatency
	s.L2HitCycles = max1(globalLatency / 3)
	s.L1HitCycles = max1(globalLatency / 12)
	s.TLBMissCycles = max1(globalLatency / 2)
	if s.CopyBytesPerCycle == 0 {
		s.CopyBytesPerCycle = 16
	}
	return s
}

// TLBReach returns the bytes one TLB fill covers.
func (s Spec) TLBReach() uint64 { return uint64(s.TLBEntries) * s.PageBytes }

// Pages returns how many pages an allocation of the given size spans.
func (s Spec) Pages(bytes uint64) uint64 {
	if s.PageBytes == 0 {
		return 0
	}
	return (bytes + s.PageBytes - 1) / s.PageBytes
}

// contains is a dependency-free strings.Contains.
func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func max1(v uint64) uint64 {
	if v == 0 {
		return 1
	}
	return v
}

// ObjectCost aggregates the model's view of one data object's traffic.
// All counters are commutative sums, so per-kernel records can be folded
// into per-object totals in any grouping without changing the result.
type ObjectCost struct {
	// Accesses is the number of memory instructions recorded.
	Accesses uint64
	// Warps is the number of 32-access coalescing groups they formed
	// (the final partial group counts).
	Warps uint64
	// Transactions is the number of 32-byte sector transactions the
	// groups issued; IdealTransactions is the minimum the same bytes
	// could have needed under perfect coalescing.
	Transactions      uint64
	IdealTransactions uint64
	// L1Hits, L2Hits and MemTransactions split Transactions by the
	// hierarchy level that served them.
	L1Hits          uint64
	L2Hits          uint64
	MemTransactions uint64
	// ModeledCycles is the latency-weighted sum over the served levels.
	ModeledCycles uint64
}

// Add folds another record into c.
func (c *ObjectCost) Add(o ObjectCost) {
	c.Accesses += o.Accesses
	c.Warps += o.Warps
	c.Transactions += o.Transactions
	c.IdealTransactions += o.IdealTransactions
	c.L1Hits += o.L1Hits
	c.L2Hits += o.L2Hits
	c.MemTransactions += o.MemTransactions
	c.ModeledCycles += o.ModeledCycles
}

// ExcessTransactions is the coalescing waste: transactions issued beyond
// the perfectly-coalesced minimum.
func (c ObjectCost) ExcessTransactions() uint64 {
	if c.Transactions <= c.IdealTransactions {
		return 0
	}
	return c.Transactions - c.IdealTransactions
}

// EntryCost is one hit-table entry's cost within a kernel launch. Base
// is the entry's range base address, which the collector resolves back
// to a data object.
type EntryCost struct {
	Base uint64
	ObjectCost
}

// KernelCost is the model's record for one kernel launch: per-entry
// costs (entries with no accesses are omitted) plus the launch total.
type KernelCost struct {
	Entries []EntryCost
	Total   ObjectCost
}

// Cache is a small set-associative cache with deterministic LRU
// replacement, tracked at line granularity.
type Cache struct {
	sets, ways int
	pow2       bool  // sets is a power of two: the set index is a mask
	slots      []way // sets*ways, set-major
	tick       uint64
}

// way is one cache slot; a set's ways are adjacent, so a 4-way probe
// reads one 64-byte block.
type way struct {
	tag   uint64 // line ID + 1, so 0 means empty
	stamp uint64 // LRU clock of the last touch
}

// NewCache builds an empty cache.
func NewCache(sets, ways int) *Cache {
	if sets < 1 {
		sets = 1
	}
	if ways < 1 {
		ways = 1
	}
	return &Cache{sets: sets, ways: ways, pow2: isPow2(uint64(sets)), slots: make([]way, sets*ways)}
}

// Access probes the cache for a line ID, inserting it (with LRU
// eviction) on a miss. Returns whether the probe hit.
func (c *Cache) Access(line uint64) bool {
	c.tick++
	var set int
	if c.pow2 {
		set = int(line & uint64(c.sets-1))
	} else {
		set = int(line % uint64(c.sets))
	}
	ways := c.slots[set*c.ways : (set+1)*c.ways]
	tag := line + 1
	victim, oldest := 0, ^uint64(0)
	for i := range ways {
		w := &ways[i]
		if w.tag == tag {
			w.stamp = c.tick
			return true
		}
		if w.tag == 0 {
			// Prefer an empty way; stamp 0 is older than any real entry.
			if oldest != 0 {
				victim, oldest = i, 0
			}
			continue
		}
		if w.stamp < oldest {
			victim, oldest = i, w.stamp
		}
	}
	ways[victim] = way{tag: tag, stamp: c.tick}
	return false
}

// Reset empties the cache without reallocating. A cache that has not
// been probed since it was built or last reset is already empty.
func (c *Cache) Reset() {
	if c.tick == 0 {
		return
	}
	clear(c.slots)
	c.tick = 0
}

// entryState is the per-hit-table-entry coalescing state of one launch:
// the current (unflushed) warp group plus the running cost totals. The
// fields an access touches come first, so an access that lands in the
// sector it last touched stays within one cache line; the sector
// scratch follows.
type entryState struct {
	n        int32 // accesses in the current group
	ns       int32 // distinct sectors in sectors[:ns]
	touched  bool  // listed in Tracker.touched this launch
	bytes    uint64
	lastBase uint64 // first byte of the sector last touched; known to the group when ns > 0
	cost     ObjectCost
	sectors  [64]uint64 // distinct sector IDs in the current group
}

// Tracker accumulates the cost model for one kernel launch at a time.
// It is bound to the device's persistent L2 and owns a private L1 and
// one entryState per hit-table entry; Reset rebinds it to the next
// launch's hit table without reallocating.
type Tracker struct {
	spec    Spec
	l1      *Cache
	l2      *Cache
	entries []entryState
	touched []int32 // entry indices with accesses, in first-touch order

	// When SectorBytes and LineBytes/SectorBytes are both powers of two
	// (SpecFor always gives that), sector and line IDs are shifts;
	// otherwise they are divisions by sectorBytes and sectorsPerLine.
	shifts         bool
	sectorShift    uint
	lineShift      uint
	sectorBytes    uint64
	sectorsPerLine uint64
}

// NewTracker prepares cost accounting over a hit table of the given
// size. l2 is the device's persistent cache (shared across launches;
// the tracker only runs on the launching goroutine). Call Reset before
// each further launch.
func NewTracker(spec Spec, l2 *Cache, entries int) *Tracker {
	t := &Tracker{
		spec:        spec,
		l1:          NewCache(spec.L1Sets, spec.L1Ways),
		l2:          l2,
		entries:     make([]entryState, entries),
		sectorBytes: spec.SectorBytes,
	}
	t.sectorsPerLine = 1
	if spec.SectorBytes != 0 && spec.LineBytes/spec.SectorBytes != 0 {
		t.sectorsPerLine = spec.LineBytes / spec.SectorBytes
	}
	if isPow2(t.sectorBytes) && isPow2(t.sectorsPerLine) {
		t.shifts = true
		t.sectorShift = log2(t.sectorBytes)
		t.lineShift = log2(t.sectorsPerLine)
	}
	return t
}

// Reset readies the tracker for a new launch over a hit table of the
// given size: it zeroes the entries the previous launch touched (the
// rest are still zero) and empties the L1. The L2 keeps its contents.
func (t *Tracker) Reset(entries int) {
	for _, e := range t.touched {
		st := &t.entries[e]
		st.n, st.ns, st.touched = 0, 0, false
		st.bytes, st.lastBase = 0, 0
		st.cost = ObjectCost{}
	}
	t.touched = t.touched[:0]
	t.entries = slices.Grow(t.entries[:0], entries)[:entries]
	t.l1.Reset()
}

// sector returns the sector ID of a byte address.
func (t *Tracker) sector(addr uint64) uint64 {
	if t.shifts {
		return addr >> (t.sectorShift & 63) // the mask drops Go's ≥64 shift check
	}
	return addr / t.sectorBytes
}

// line returns the cache-line ID of a sector ID.
func (t *Tracker) line(sector uint64) uint64 {
	if t.shifts {
		return sector >> (t.lineShift & 63)
	}
	return sector / t.sectorsPerLine
}

// Access records one memory instruction against a hit-table entry. This
// sits on the simulator's hot access path. An access inside the sector
// the entry last touched that does not close the group takes the fast
// path: two counters on the entry's first cache line, no scan.
func (t *Tracker) Access(entry int, addr uint64, size uint32) {
	st := &t.entries[entry]
	if off := addr - st.lastBase; st.ns > 0 && off < t.sectorBytes &&
		uint64(size) <= t.sectorBytes-off && int(st.n)+1 < t.spec.WarpSize {
		st.n++
		st.bytes += uint64(size)
		return
	}
	t.access(st, entry, addr, size)
}

// access is Access's general path: it adds the access's sectors to the
// group's ascending distinct set and closes a full group.
func (t *Tracker) access(st *entryState, entry int, addr uint64, size uint32) {
	if !st.touched {
		st.touched = true
		t.touched = append(t.touched, int32(entry))
	}
	st.n++
	st.bytes += uint64(size)
	first := t.sector(addr)
	last := first
	if size > 0 {
		last = t.sector(addr + uint64(size) - 1)
	}
	t.addSectors(st, first, last)
	if int(st.n) >= t.spec.WarpSize {
		t.flush(st)
	}
}

// addSectors adds the sectors first..last to the group's distinct set,
// kept ascending by insertion, dropping new ones once the 64-slot
// scratch is full. st.lastBase ends at last's first byte; last is then
// in the set or was dropped, so a repeat of it changes nothing either
// way.
func (t *Tracker) addSectors(st *entryState, first, last uint64) {
	for s := first; s <= last; s++ {
		base := s * t.sectorBytes
		set := st.sectors[:st.ns]
		switch {
		case st.ns > 0 && base == st.lastBase:
			// A repeat of the previous sector.
		case st.ns == 0 || s > set[st.ns-1]:
			// Past the maximum: new, appended in order.
			if int(st.ns) < len(st.sectors) {
				st.sectors[st.ns] = s
				st.ns++
			}
		default:
			// s ≤ the maximum: find its slot.
			lo := 0
			for set[lo] < s {
				lo++
			}
			if set[lo] != s && int(st.ns) < len(st.sectors) {
				copy(st.sectors[lo+1:st.ns+1], set[lo:])
				st.sectors[lo] = s
				st.ns++
			}
		}
		st.lastBase = base
	}
}

// flush closes one warp group: counts its accesses and transactions
// against the ideal, probes the hierarchy once per distinct sector
// (ascending, for a deterministic replacement order), and resets the
// group.
func (t *Tracker) flush(st *entryState) {
	if st.n == 0 {
		return
	}
	st.cost.Accesses += uint64(st.n)
	st.cost.Warps++
	st.cost.Transactions += uint64(st.ns)
	ideal := t.sector(st.bytes + t.sectorBytes - 1)
	if ideal > uint64(st.ns) {
		ideal = uint64(st.ns)
	}
	if ideal == 0 && st.ns > 0 {
		ideal = 1
	}
	st.cost.IdealTransactions += ideal

	// Ascending sector order (addSectors inserts in order) keeps cache
	// insertion deterministic and groups same-line sectors together, so a 128-byte line's four
	// sectors cost one fill plus three L1 hits — the hardware shape.
	// A sector on the previous sector's line is an L1 hit without a
	// probe: that probe left the line resident and most recent, so
	// probing again could not change any LRU decision.
	sectors := st.sectors[:st.ns]
	var prev uint64
	for i, s := range sectors {
		line := t.line(s)
		switch {
		case i > 0 && line == prev, t.l1.Access(line):
			st.cost.L1Hits++
			st.cost.ModeledCycles += t.spec.L1HitCycles
		case t.l2 != nil && t.l2.Access(line):
			st.cost.L2Hits++
			st.cost.ModeledCycles += t.spec.L2HitCycles
		default:
			st.cost.MemTransactions++
			st.cost.ModeledCycles += t.spec.DRAMCycles
		}
		prev = line
	}
	st.n = 0
	st.bytes = 0
	st.ns = 0
}

// Finish flushes every partial warp group and materializes the launch's
// KernelCost. base resolves a hit-table entry index to its range base
// address. Entries are emitted in hit-table (address) order.
func (t *Tracker) Finish(base func(entry int) uint64) *KernelCost {
	slices.Sort(t.touched)
	kc := &KernelCost{}
	for _, e := range t.touched {
		st := &t.entries[e]
		t.flush(st)
		kc.Entries = append(kc.Entries, EntryCost{Base: base(int(e)), ObjectCost: st.cost})
		kc.Total.Add(st.cost)
	}
	if len(kc.Entries) == 0 {
		return nil
	}
	return kc
}

func isPow2(v uint64) bool { return v != 0 && v&(v-1) == 0 }

// log2 returns the exponent of a power of two.
func log2(v uint64) uint { return uint(bits.TrailingZeros64(v)) }
