package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"
	"time"

	"drgpum/internal/gpu"
	"drgpum/internal/workloads"
)

func TestMedianQuartilesTail(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	// Reference values from Python: statistics.quantiles(xs, n=4).
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1}, [3]float64{-1.25, 5.5, 12.25}}, // Python extrapolates small samples
		{[]float64{7, 3, 5, 1}, [3]float64{1.5, 4, 6.5}},
	}
	for _, c := range cases {
		got := quartiles(c.xs)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}

	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	v, pct, ok := tail(xs)
	if v != 90 || pct != 90 || !ok {
		t.Errorf("tail of 1..100 = %v at p%v (ok %v), want 90 at p90", v, pct, ok)
	}
	if v, _, ok := tail(xs[:10]); ok || v != 100 {
		t.Errorf("tail of ten samples = %v (ok %v), want the maximum and not ok", v, ok)
	}
}

// apiDigest runs a program natively and hashes its API stream.
type apiDigest struct{ h uint64 }

func (d *apiDigest) OnAPI(rec *gpu.APIRecord) {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %v %s %d %d %d %d", d.h, rec.Kind, rec.Name, rec.Ptr, rec.Size, rec.Dst, rec.Src)
	d.h = h.Sum64()
}

func (d *apiDigest) OnAccessBatch(*gpu.APIRecord, []gpu.MemAccess) {}

func streamDigest(t *testing.T, seed uint64) uint64 {
	t.Helper()
	prog := generateStream(seed, 64)
	dev := gpu.NewDevice(gpu.SpecRTX3090())
	d := &apiDigest{}
	dev.AddHook(d)
	dev.SetPatchLevel(gpu.PatchAPI)
	if err := prog.workload().Run(dev, workloads.NopHost(), 0); err == nil {
		return d.h
	}
	return 0
}

func sessionDigest(seed uint64) uint64 {
	g := newSessionGen(seed, 0, 3, []string{"polybench/bicg", "xsbench", "simplemulticopy"})
	h := fnv.New64a()
	for i := 0; i < 50; i++ {
		for _, r := range g.next(0) {
			fmt.Fprintf(h, "%+v %s %v;", r.req, r.format, r.repeat)
		}
	}
	return h.Sum64()
}

func TestGeneratorsAreSeeded(t *testing.T) {
	a, b, c := streamDigest(t, 7), streamDigest(t, 7), streamDigest(t, 8)
	if a == 0 || a != b {
		t.Errorf("long-stream: same seed gave API-stream digests %x and %x", a, b)
	}
	if a == c {
		t.Errorf("long-stream: seeds 7 and 8 gave the same API-stream digest %x", a)
	}
	if x, y, z := sessionDigest(7), sessionDigest(7), sessionDigest(8); x != y || x == z {
		t.Errorf("serve-mixed: session digests %x %x (same seed), %x (other seed)", x, y, z)
	}
}

// smokeEnv is a run that measures as little as the workload allows.
func smokeEnv(traced bool) *runEnv {
	return &runEnv{seed: 3, seconds: 1e-9, traced: traced, t0: time.Now(), log: os.Stderr}
}

// smoke runs a workload untraced and traced, requires every oracle to
// pass and every declared metric to be reported, and returns the two
// runs' counters.
func smoke(t *testing.T, fn func(*runEnv) (*outcome, error)) [2]map[string]uint64 {
	t.Helper()
	var counters [2]map[string]uint64
	for i, traced := range []bool{false, true} {
		o, err := fn(smokeEnv(traced))
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		if o.failed != 0 {
			t.Errorf("traced=%v: %d of %d operations failed: %v", traced, o.failed, o.attempted, o.problems)
		}
		if _, err := buildResult(o, traced); err != nil {
			t.Errorf("traced=%v: %v", traced, err)
		}
		if traced && len(o.spans) == 0 {
			t.Errorf("traced run recorded no spans")
		}
		counters[i] = o.counters
	}
	return counters
}

var smokePrograms = []string{"sdk/particles", "polybench/bicg", "sdk/matrixtranspose"}

func TestSmokeFig6(t *testing.T) {
	prm := fig6Params{programs: smokePrograms, setups: 1, minPasses: 2}
	c := smoke(t, func(e *runEnv) (*outcome, error) { return runFig6(e, prm) })
	if err := sameCounterMap("fig6", c[0], onlyPrefixed(c[1], "object.", "intra.")); err != nil {
		t.Error(err)
	}
}

func TestSmokeLongStream(t *testing.T) {
	prm := streamParams{epochs: 80, snapshotEvery: 20, setups: 1, minRounds: 2}
	smoke(t, func(e *runEnv) (*outcome, error) { return runLongStream(e, prm) })
}

func TestSmokeServeMixed(t *testing.T) {
	prm := serveParams{clients: 2, setups: 1, warmups: 1, minSessions: 3, programs: smokePrograms}
	c := smoke(t, func(e *runEnv) (*outcome, error) { return runServeMixed(e, prm) })
	if err := sameCounterMap("serve-mixed", onlyPrefixed(c[0], "engine_", "runs"), onlyPrefixed(c[1], "engine_", "runs")); err != nil {
		t.Error(err)
	}
}

// onlyPrefixed keeps the counters whose names start with one of prefixes.
func onlyPrefixed(m map[string]uint64, prefixes ...string) map[string]uint64 {
	out := make(map[string]uint64)
	for _, k := range sortedKeys(m) {
		for _, p := range prefixes {
			if len(k) >= len(p) && k[:len(p)] == p {
				out[k] = m[k]
			}
		}
	}
	return out
}

// TestBenchmarkJSON keeps BENCHMARK.json's workloads and metrics in step
// with the ones this program runs and reports.
func TestBenchmarkJSON(t *testing.T) {
	body, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadFuncs) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloadFuncs))
	}
	for _, w := range doc.Workloads {
		if _, ok := workloadFuncs[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not run by the program", w.Name)
		}
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd)
	compare("per_layer", doc.PerLayer, perLayer)
}
