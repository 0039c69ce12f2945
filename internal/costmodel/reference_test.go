package costmodel

import (
	"reflect"
	"slices"
	"testing"
)

// The reference model below transcribes DESIGN.md §4.9 stages 1–2
// literally and slowly, sharing no code with the Tracker:
//
//   - stage 1: every WarpSize consecutive accesses to one hit-table entry
//     form a group; the group keeps the distinct sectors it touches in
//     first-seen order, at most 64 of them, and costs one transaction per
//     kept sector against an ideal of min(sectors, ceil(bytes/sector));
//   - stage 2: the group's sectors, sorted ascending, each probe a
//     per-launch L1 and then the persistent L2 at line granularity; both
//     caches are set-associative with LRU replacement, kept here as an
//     explicit recency list per set.

// refCache is a set-associative LRU cache as explicit recency lists:
// lru[set] holds the set's resident lines, least recently used first.
type refCache struct {
	ways int
	lru  [][]uint64
}

func newRefCache(sets, ways int) *refCache {
	return &refCache{ways: max(ways, 1), lru: make([][]uint64, max(sets, 1))}
}

// access probes line and reports whether it was resident. A hit moves
// the line to the most-recent end; a miss inserts it there, evicting the
// least recently used line of a full set.
func (c *refCache) access(line uint64) bool {
	set := line % uint64(len(c.lru))
	l := c.lru[set]
	for i, x := range l {
		if x == line {
			c.lru[set] = append(slices.Delete(l, i, i+1), line)
			return true
		}
	}
	if len(l) == c.ways {
		l = slices.Delete(l, 0, 1)
	}
	c.lru[set] = append(l, line)
	return false
}

// refGroup is one entry's open warp group.
type refGroup struct {
	accesses int
	bytes    uint64
	seen     map[uint64]bool
	sectors  []uint64 // distinct sectors, first-seen order, at most 64
}

// refLaunch models one kernel launch over a persistent L2.
type refLaunch struct {
	spec   Spec
	l1, l2 *refCache
	open   map[int]*refGroup
	costs  map[int]*ObjectCost
}

func newRefLaunch(spec Spec, l2 *refCache) *refLaunch {
	return &refLaunch{
		spec:  spec,
		l1:    newRefCache(spec.L1Sets, spec.L1Ways),
		l2:    l2,
		open:  map[int]*refGroup{},
		costs: map[int]*ObjectCost{},
	}
}

func (r *refLaunch) access(entry int, addr uint64, size uint32) {
	g := r.open[entry]
	if g == nil {
		g = &refGroup{seen: map[uint64]bool{}}
		r.open[entry] = g
	}
	if r.costs[entry] == nil {
		r.costs[entry] = &ObjectCost{}
	}
	r.costs[entry].Accesses++
	g.accesses++
	g.bytes += uint64(size)
	end := addr
	if size > 0 {
		end = addr + uint64(size) - 1
	}
	for s := addr / r.spec.SectorBytes; s <= end/r.spec.SectorBytes; s++ {
		if !g.seen[s] && len(g.sectors) < 64 {
			g.seen[s] = true
			g.sectors = append(g.sectors, s)
		}
	}
	if g.accesses == r.spec.WarpSize {
		r.close(entry)
	}
}

// close prices entry's open group and discards it.
func (r *refLaunch) close(entry int) {
	g := r.open[entry]
	if g == nil {
		return
	}
	delete(r.open, entry)
	c := r.costs[entry]
	c.Warps++
	c.Transactions += uint64(len(g.sectors))
	ideal := (g.bytes + r.spec.SectorBytes - 1) / r.spec.SectorBytes
	ideal = min(ideal, uint64(len(g.sectors)))
	if ideal == 0 && len(g.sectors) > 0 {
		ideal = 1
	}
	c.IdealTransactions += ideal

	sectorsPerLine := r.spec.LineBytes / r.spec.SectorBytes
	if sectorsPerLine == 0 {
		sectorsPerLine = 1
	}
	sorted := slices.Clone(g.sectors)
	slices.Sort(sorted)
	for _, s := range sorted {
		line := s / sectorsPerLine
		switch {
		case r.l1.access(line):
			c.L1Hits++
			c.ModeledCycles += r.spec.L1HitCycles
		case r.l2.access(line):
			c.L2Hits++
			c.ModeledCycles += r.spec.L2HitCycles
		default:
			c.MemTransactions++
			c.ModeledCycles += r.spec.DRAMCycles
		}
	}
}

// finish closes the partial groups in entry order and builds the
// launch record, nil when nothing was accessed.
func (r *refLaunch) finish(base func(int) uint64) *KernelCost {
	var entries []int
	for e := range r.costs {
		entries = append(entries, e)
	}
	slices.Sort(entries)
	if len(entries) == 0 {
		return nil
	}
	kc := &KernelCost{}
	for _, e := range entries {
		r.close(e)
		c := *r.costs[e]
		kc.Entries = append(kc.Entries, EntryCost{Base: base(e), ObjectCost: c})
		kc.Total.Add(c)
	}
	return kc
}

// rng is a SplitMix64 generator for the fuzz streams.
type rng struct{ x uint64 }

func (r *rng) next() uint64 {
	r.x += 0x9e3779b97f4a7c15
	z := (r.x ^ (r.x >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// fuzzSpecs are the geometries the fuzz target draws from: the shipped
// devices, the small test cache (frequent evictions), and custom specs
// whose sector, line, set or warp sizes are not powers of two.
func fuzzSpecs() []Spec {
	rtx := SpecFor("NVIDIA GeForce RTX 3090 (sim)", 400, 24, 90_000, 40_000)
	small := SpecFor("test device", 400, 24, 90_000, 40_000)
	odd := small
	odd.SectorBytes, odd.LineBytes = 24, 96 // 4 sectors per line, division path
	odd3 := small
	odd3.LineBytes = 96 // 3 sectors per line
	odd3.L1Sets, odd3.L2Sets = 6, 12
	narrow := small
	narrow.WarpSize = 7
	narrow.L1Ways = 1
	return []Spec{rtx, small, odd, odd3, narrow}
}

// Stream shapes, per entry and launch.
const (
	shapeUnit      = iota // consecutive elements
	shapeStrided          // one element per stride
	shapeIrregular        // scattered within a small window
	shapeWide             // multi-sector accesses over a wide window: groups exceed 64 sectors
	numShapes
)

// fuzzLaunch generates one launch's stream: a hit table of 1..maxEntries
// entries, each with its own shape (or all with shape-1 when shape is
// nonzero), accessed in runs that interleave entries. It returns the
// table size and the accesses.
func fuzzLaunch(r *rng, maxEntries int, shape uint8) (int, []fuzzAccess) {
	entries := 1 + r.intn(maxEntries)
	type entryGen struct {
		shape  int
		stride uint64
		elem   uint32
		next   uint64
	}
	gens := make([]entryGen, entries)
	for i := range gens {
		g := &gens[i]
		g.shape = r.intn(numShapes)
		if shape != 0 {
			g.shape = int(shape-1) % numShapes
		}
		g.stride = []uint64{24, 64, 100, 128, 256, 4096}[r.intn(6)]
		g.elem = []uint32{0, 1, 2, 4, 8, 16}[r.intn(6)]
		g.next = uint64(r.intn(64))
	}
	n := r.intn(700)
	out := make([]fuzzAccess, 0, n)
	e := 0
	for range n {
		if r.intn(5) == 0 {
			e = r.intn(entries)
		}
		g := &gens[e]
		base := uint64(e+1) << 24
		a := fuzzAccess{entry: e, size: g.elem}
		switch g.shape {
		case shapeUnit:
			a.addr = base + g.next*uint64(max(g.elem, 1))
			g.next++
		case shapeStrided:
			a.addr = base + g.next*g.stride
			g.next++
		case shapeIrregular:
			a.addr = base + uint64(r.intn(4096))
		case shapeWide:
			a.addr = base + uint64(r.intn(1<<20))
			a.size = uint32(64 + r.intn(512))
		}
		out = append(out, a)
	}
	return entries, out
}

type fuzzAccess struct {
	entry int
	addr  uint64
	size  uint32
}

// FuzzTrackerMatchesReference requires the Tracker and the reference
// model to produce equal KernelCost records for the same streams. One
// tracker serves every launch (reset in between, as the device does),
// over hit tables that grow and shrink, with a persistent L2 on both
// sides. seed drives the SplitMix64 stream; specIdx picks the geometry;
// shape, when nonzero, forces stream shape shape-1 on every entry.
func FuzzTrackerMatchesReference(f *testing.F) {
	// Interleaved entries with mixed shapes, including multi-sector
	// accesses, on the shipped 3090 geometry.
	f.Add(uint64(1), uint8(0), uint8(0), uint8(1))
	// Groups over 64 distinct sectors.
	f.Add(uint64(2), uint8(1), uint8(1+shapeWide), uint8(3))
	// Non-power-of-two sector and line sizes (division path), and a
	// 3-sector line with non-power-of-two set counts.
	f.Add(uint64(3), uint8(2), uint8(0), uint8(4))
	f.Add(uint64(4), uint8(3), uint8(0), uint8(4))
	// Several launches through one reused tracker over a persistent L2,
	// with hit tables that grow and shrink; a 7-access warp and a
	// direct-mapped L1.
	f.Add(uint64(5), uint8(1), uint8(0), uint8(12))
	f.Add(uint64(6), uint8(4), uint8(1+shapeStrided), uint8(8))
	f.Add(uint64(7), uint8(0), uint8(1+shapeUnit), uint8(6))
	f.Add(uint64(8), uint8(1), uint8(1+shapeIrregular), uint8(10))
	specs := fuzzSpecs()
	f.Fuzz(func(t *testing.T, seed uint64, specIdx, shape, launches uint8) {
		spec := specs[int(specIdx)%len(specs)]
		r := &rng{x: seed}
		l2 := NewCache(spec.L2Sets, spec.L2Ways)
		refL2 := newRefCache(spec.L2Sets, spec.L2Ways)
		tr := NewTracker(spec, l2, 0)
		base := func(e int) uint64 { return uint64(e+1) << 24 }
		for launch := range 1 + int(launches)%16 {
			entries, stream := fuzzLaunch(r, 9, shape)
			tr.Reset(entries)
			ref := newRefLaunch(spec, refL2)
			for _, a := range stream {
				tr.Access(a.entry, a.addr, a.size)
				ref.access(a.entry, a.addr, a.size)
			}
			got, want := tr.Finish(base), ref.finish(base)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("launch %d (%d entries, %d accesses): tracker\n%+v\nreference\n%+v",
					launch, entries, len(stream), got, want)
			}
		}
	})
}
