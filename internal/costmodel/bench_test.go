package costmodel

import "testing"

// trackerStreams are the three access classes of the coalescing tests,
// 4096 four-byte accesses each (128 full warp groups): unit stride,
// one access per 128-byte line, and SplitMix64 scatter over 64 KiB.
func trackerStreams() []struct {
	name  string
	addrs []uint64
} {
	unit := make([]uint64, 4096)
	strided := make([]uint64, 4096)
	irregular := make([]uint64, 4096)
	r := &rng{x: 1}
	for i := range unit {
		unit[i] = uint64(i) * 4
		strided[i] = uint64(i) * 128
		irregular[i] = uint64(r.intn(64<<10)) &^ 3
	}
	return []struct {
		name  string
		addrs []uint64
	}{{"unit", unit}, {"strided", strided}, {"irregular", irregular}}
}

// launchStream runs one launch's worth of accesses through a reused
// tracker, the way the device drives it.
func launchStream(tr *Tracker, addrs []uint64) {
	tr.Reset(1)
	for _, a := range addrs {
		tr.Access(0, a, 4)
	}
}

// BenchmarkTrackerAccess measures the tracker's per-access cost on a
// reused tracker (one op = Reset plus one stream), in ns/access.
func BenchmarkTrackerAccess(b *testing.B) {
	spec := testSpec()
	for _, s := range trackerStreams() {
		b.Run(s.name, func(b *testing.B) {
			tr := NewTracker(spec, NewCache(spec.L2Sets, spec.L2Ways), 0)
			launchStream(tr, s.addrs)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				launchStream(tr, s.addrs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(s.addrs)), "ns/access")
		})
	}
}

// TestTrackerReuseAllocatesNothing pins that a reused tracker runs a
// launch's accesses without allocating once it has seen a table of that
// size.
func TestTrackerReuseAllocatesNothing(t *testing.T) {
	spec := testSpec()
	for _, s := range trackerStreams() {
		tr := NewTracker(spec, NewCache(spec.L2Sets, spec.L2Ways), 0)
		launchStream(tr, s.addrs)
		if allocs := testing.AllocsPerRun(5, func() { launchStream(tr, s.addrs) }); allocs != 0 {
			t.Errorf("%s: reused tracker allocated %v times per launch", s.name, allocs)
		}
	}
}
