// Package sharedwrite is the fixture for the sharedwrite analyzer: writes
// into closure-captured slices/maps inside go-func bodies must be flagged
// unless the element index arrives as a literal parameter.
package sharedwrite

import "sync"

// fanOutBad indexes the shared slice with a captured variable — flagged.
func fanOutBad(items []int) []int {
	out := make([]int, len(items))
	var wg sync.WaitGroup
	for i := range items {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = items[i] * 2 // want `write into closure-captured out inside go func with an index not passed as a parameter`
		}()
	}
	wg.Wait()
	return out
}

// fanOutGood passes the index as a parameter — the sanctioned shape, silent.
func fanOutGood(items []int) []int {
	out := make([]int, len(items))
	var wg sync.WaitGroup
	for i := range items {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = items[i] * 2
		}(i)
	}
	wg.Wait()
	return out
}

// capturedAppend grows a shared slice concurrently — flagged.
func capturedAppend(items []int) []int {
	var out []int
	var wg sync.WaitGroup
	for _, v := range items {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			out = append(out, v*2) // want `append to closure-captured slice out inside go func`
		}(v)
	}
	wg.Wait()
	return out
}

// capturedMapWrite writes a shared map concurrently — always flagged, even
// with a parameter-derived key.
func capturedMapWrite(items []string) map[string]int {
	out := make(map[string]int, len(items))
	var wg sync.WaitGroup
	for _, k := range items {
		wg.Add(1)
		go func(k string) {
			defer wg.Done()
			out[k] = len(k) // want `write into closure-captured map out inside go func`
		}(k)
	}
	wg.Wait()
	return out
}

// sharedCounter increments one shared element from every goroutine — a
// constant index is shared by all goroutines, flagged.
func sharedCounter(n int) int {
	counts := make([]int, 1)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			counts[0]++ // want `write into closure-captured counts inside go func with an index not passed as a parameter`
		}()
	}
	wg.Wait()
	return counts[0]
}

// offsetIndex mixes a parameter with a captured offset — not provably
// disjoint, flagged.
func offsetIndex(items []int, off int) []int {
	out := make([]int, 2*len(items))
	var wg sync.WaitGroup
	for i := range items {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i+off] = items[i] // want `write into closure-captured out inside go func with an index not passed as a parameter`
		}(i)
	}
	wg.Wait()
	return out
}

// boundedPool is the run engine's fan-out shape (internal/engine): a
// semaphore bounds concurrency and each goroutine receives its result
// index as a parameter — silent.
func boundedPool(items []int, workers int) []int {
	out := make([]int, len(items))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range items {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = items[i] * 2
			<-sem
		}(i)
	}
	wg.Wait()
	return out
}

// stridedPool shards by worker stride: the element index is a body-local
// loop variable, not a literal parameter. The writes happen to be disjoint,
// but that is invisible to a per-statement analysis, so the analyzer
// conservatively flags it — use the boundedPool shape instead.
func stridedPool(items []int, workers int) []int {
	out := make([]int, len(items))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(items); i += workers {
				out[i] = items[i] * 2 // want `write into closure-captured out inside go func with an index not passed as a parameter`
			}
		}(w)
	}
	wg.Wait()
	return out
}

// localsOnly writes only goroutine-local state and reports over a channel —
// silent.
func localsOnly(items []int) int {
	ch := make(chan int, len(items))
	for _, v := range items {
		go func(v int) {
			scratch := make([]int, 0, 4)
			scratch = append(scratch, v, v*2)
			sum := 0
			for _, s := range scratch {
				sum += s
			}
			ch <- sum
		}(v)
	}
	total := 0
	for range items {
		total += <-ch
	}
	return total
}

// epoch mimics the streaming heat map's per-window summary.
type epoch struct {
	first uint64
	cells map[int]uint64
}

// windowFanOutBad finalizes epochs concurrently but writes each into a
// shared map keyed by the captured loop variable — flagged.
func windowFanOutBad(epochs []epoch) map[uint64]uint64 {
	totals := make(map[uint64]uint64, len(epochs))
	var wg sync.WaitGroup
	for _, e := range epochs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sum uint64
			for _, n := range e.cells {
				sum += n
			}
			totals[e.first] = sum // want `write into closure-captured map totals inside go func`
		}()
	}
	wg.Wait()
	return totals
}

// windowFanOutGood gives each epoch its own result slot indexed by a
// parameter — the sanctioned fan-out shape, silent.
func windowFanOutGood(epochs []epoch) []uint64 {
	totals := make([]uint64, len(epochs))
	var wg sync.WaitGroup
	for i := range epochs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var sum uint64
			for _, n := range epochs[i].cells {
				sum += n
			}
			totals[i] = sum
		}(i)
	}
	wg.Wait()
	return totals
}

// shardState mimics one channel worker's private accumulator.
type shardState struct {
	counts map[uint64]uint64
	spills uint64
}

// channelWorkersGood is the channel-worker shape: each goroutine
// receives its own state struct as a parameter and drains a task channel,
// writing only through that parameter — silent. All cross-worker merging
// happens after the channel closes and the WaitGroup settles.
func channelWorkersGood(tasks chan uint64, workers int) uint64 {
	states := make([]*shardState, workers)
	for i := range states {
		states[i] = &shardState{counts: make(map[uint64]uint64)}
	}
	var wg sync.WaitGroup
	for i := range states {
		wg.Add(1)
		go func(st *shardState) {
			defer wg.Done()
			for obj := range tasks {
				st.counts[obj]++
				st.spills++
			}
		}(states[i])
	}
	wg.Wait()
	var total uint64
	for _, st := range states {
		total += st.spills
	}
	return total
}

// channelWorkersBadMap drains the same task channel but folds into one
// captured map shared by every worker — flagged.
func channelWorkersBadMap(tasks chan uint64, workers int) map[uint64]uint64 {
	counts := make(map[uint64]uint64)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for obj := range tasks {
				counts[obj]++ // want `write into closure-captured map counts inside go func`
			}
		}()
	}
	wg.Wait()
	return counts
}

// channelWorkersBadSlot accumulates into a shared slice indexed by the
// task value, not a goroutine parameter — two workers draining the same
// object id collide, flagged.
func channelWorkersBadSlot(tasks chan int, workers int, slots []uint64) {
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for obj := range tasks {
				slots[obj]++ // want `write into closure-captured slots inside go func with an index not passed as a parameter`
			}
		}()
	}
	wg.Wait()
}
