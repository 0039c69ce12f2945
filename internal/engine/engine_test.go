package engine_test

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"drgpum/internal/engine"
	"drgpum/internal/gpu"
	"drgpum/internal/workloads"
)

// cheap workloads for scheduling-focused tests.
var cheapNames = []string{"simplemulticopy", "polybench/bicg", "rodinia/huffman"}

func cheapWorkloads(t *testing.T) []*workloads.Workload {
	t.Helper()
	ws := make([]*workloads.Workload, len(cheapNames))
	for i, name := range cheapNames {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %s", name)
		}
		ws[i] = w
	}
	return ws
}

// TestResultsAreIndexAddressed pins the determinism foundation: results[i]
// belongs to specs[i] no matter how the pool schedules, so a batch mixing
// distinct workloads must come back with each report attached to its own
// program.
func TestResultsAreIndexAddressed(t *testing.T) {
	ws := cheapWorkloads(t)
	for _, cfg := range []engine.Config{{Workers: 1}, {Workers: 4}} {
		e := engine.New(cfg)
		var specs []engine.RunSpec
		for _, w := range ws {
			specs = append(specs, engine.RunSpec{
				Workload: w,
				Spec:     gpu.SpecRTX3090(),
				Variant:  workloads.VariantNaive,
				Level:    gpu.PatchFull,
				Sampling: 1,
			})
		}
		results, err := e.Run(specs)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range ws {
			if results[i].Report == nil {
				t.Fatalf("cfg %+v: results[%d] has no report", cfg, i)
			}
			// Each cheap workload has a distinct pattern count; compare
			// against a direct single-spec run of the same tuple.
			single, err := engine.New(engine.Config{}).Run([]engine.RunSpec{specs[i]})
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprint(results[i].Report.PatternSet())
			want := fmt.Sprint(single[0].Report.PatternSet())
			if got != want {
				t.Errorf("cfg %+v: %s pattern set %s, want %s", cfg, w.Name, got, want)
			}
		}
	}
}

// TestCacheMemoizesAndCounts pins the cache contract: the same tuple
// executes once per engine, repeats are hits (or singleflight dedups when
// in flight), and cached callers share one report pointer.
func TestCacheMemoizesAndCounts(t *testing.T) {
	w, _ := workloads.ByName("simplemulticopy")
	spec := engine.RunSpec{
		Workload: w,
		Spec:     gpu.SpecRTX3090(),
		Variant:  workloads.VariantNaive,
		Level:    gpu.PatchAPI,
	}
	e := engine.New(engine.Config{Workers: 1})
	first, err := e.Run([]engine.RunSpec{spec, spec, spec})
	if err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Runs != 3 || s.Misses != 1 || s.Hits != 2 || s.Dedups != 0 || s.Timed != 0 {
		t.Fatalf("sequential stats = %+v, want 3 runs / 1 miss / 2 hits", s)
	}
	if first[0].Report != first[1].Report || first[1].Report != first[2].Report {
		t.Error("cached requests did not share one report")
	}

	again, err := e.Run([]engine.RunSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Misses != 1 || s.Hits != 3 {
		t.Fatalf("stats after second batch = %+v, want still 1 miss", s)
	}
	if again[0].Report != first[0].Report {
		t.Error("second batch did not reuse the cache")
	}

	// A parallel engine over duplicated specs must also execute exactly
	// once (waiters either hit the completed entry or dedup onto the
	// in-flight one).
	p := engine.New(engine.Config{Workers: 4})
	if _, err := p.Run([]engine.RunSpec{spec, spec, spec, spec}); err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.Misses != 1 || s.Hits+s.Dedups != 3 {
		t.Fatalf("parallel stats = %+v, want 1 miss and 3 hits+dedups", s)
	}
}

// TestTimedRunsBypassCache: repeats of a wall-clock measurement must all
// execute — deduplicating a median's samples would fabricate data.
func TestTimedRunsBypassCache(t *testing.T) {
	w, _ := workloads.ByName("simplemulticopy")
	spec := engine.RunSpec{
		Mode:     engine.ModeNative,
		Workload: w,
		Spec:     gpu.SpecRTX3090(),
		Variant:  workloads.VariantNaive,
		Opts:     engine.RunOpts{Timed: true},
	}
	e := engine.New(engine.Config{Workers: 4})
	var executed atomic.Int32
	e.SetTestHooks(func(engine.RunSpec) { executed.Add(1) }, nil)
	if _, err := e.Run([]engine.RunSpec{spec, spec, spec}); err != nil {
		t.Fatal(err)
	}
	if got := executed.Load(); got != 3 {
		t.Errorf("executed %d timed runs, want 3 (no dedup)", got)
	}
	if s := e.Stats(); s.Timed != 3 || s.Misses != 0 || s.Hits != 0 {
		t.Errorf("stats = %+v, want 3 timed and nothing cached", s)
	}
}

// TestErrorPropagation: a failing run surfaces as both the batch error
// and the per-result error, the failure is memoized like any result, and
// the other runs in the batch still complete.
func TestErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	bad := &workloads.Workload{
		Name: "engine-test/boom",
		Run: func(dev *gpu.Device, host workloads.Host, v workloads.Variant) error {
			return boom
		},
	}
	good, _ := workloads.ByName("simplemulticopy")
	e := engine.New(engine.Config{Workers: 2})
	specs := []engine.RunSpec{
		{Mode: engine.ModeNative, Workload: bad, Spec: gpu.SpecRTX3090(), Variant: workloads.VariantNaive},
		{Mode: engine.ModeNative, Workload: good, Spec: gpu.SpecRTX3090(), Variant: workloads.VariantNaive},
	}
	results, err := e.Run(specs)
	if !errors.Is(err, boom) {
		t.Fatalf("batch error = %v, want the workload's failure", err)
	}
	if !errors.Is(results[0].Err, boom) {
		t.Errorf("results[0].Err = %v", results[0].Err)
	}
	if results[1].Err != nil || results[1].Cycles == 0 {
		t.Errorf("healthy neighbor did not complete: %+v", results[1])
	}
	if _, err := e.Run(specs[:1]); !errors.Is(err, boom) {
		t.Errorf("memoized failure not replayed: %v", err)
	}
	if s := e.Stats(); s.Misses != 2 || s.Hits != 1 {
		t.Errorf("stats = %+v, want the failure cached (2 misses, 1 hit)", s)
	}
}

// TestTimedRunsAreExclusive is the scheduling regression test for the
// exclusive lane: with a full worker pool and timed runs interleaved into
// a stream of untimed work, no run body may ever be in flight at the same
// time as a timed run. The hooks fire inside the lane hold, so an
// observed overlap here is a real overlap of run bodies.
func TestTimedRunsAreExclusive(t *testing.T) {
	ws := cheapWorkloads(t)
	e := engine.New(engine.Config{Workers: 8})

	var active, timedActive, maxActive, violations atomic.Int32
	e.SetTestHooks(func(s engine.RunSpec) {
		n := active.Add(1)
		for {
			m := maxActive.Load()
			if n <= m || maxActive.CompareAndSwap(m, n) {
				break
			}
		}
		if s.Opts.Timed {
			timedActive.Add(1)
			if n != 1 {
				violations.Add(1)
			}
		} else if timedActive.Load() != 0 {
			violations.Add(1)
		}
	}, func(s engine.RunSpec) {
		if s.Opts.Timed {
			timedActive.Add(-1)
		}
		active.Add(-1)
	})

	// Interleave: after every few untimed profile runs, a timed native
	// run. Untimed specs are all distinct tuples so none dedup away.
	var specs []engine.RunSpec
	for round := 0; round < 4; round++ {
		for i, w := range ws {
			specs = append(specs, engine.RunSpec{
				Workload: w,
				Spec:     gpu.SpecRTX3090(),
				Variant:  workloads.Variant(round % 2),
				Level:    gpu.PatchFull,
				Sampling: round/2*99 + i + 1,
			})
		}
		specs = append(specs, engine.RunSpec{
			Mode:     engine.ModeNative,
			Workload: ws[round%len(ws)],
			Spec:     gpu.SpecA100(),
			Variant:  workloads.VariantNaive,
			Opts:     engine.RunOpts{Timed: true},
		})
	}
	if _, err := e.Run(specs); err != nil {
		t.Fatal(err)
	}
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d run(s) overlapped a timed run", v)
	}
	if s := e.Stats(); s.Timed != 4 {
		t.Errorf("stats = %+v, want 4 timed runs", s)
	}
	t.Logf("max concurrent run bodies observed: %d", maxActive.Load())
}
