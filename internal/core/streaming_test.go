package core_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"drgpum/internal/core"
	"drgpum/internal/gpu"
	_ "drgpum/internal/gui" // registers the GUI exporter used below
	"drgpum/internal/workloads"
)

// streamWindow is the kernel-epoch length the streaming tests use: small
// enough that every workload closes several windows (and so actually
// exercises retirement), unlike the larger default.
const streamWindow = 4

// profiledReport runs one workload variant from scratch — offline or
// streaming — and returns the finished report.
func profiledReport(tb testing.TB, name string, v workloads.Variant, stream bool) *core.Report {
	tb.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		tb.Fatalf("unknown workload %s", name)
	}
	dev := gpu.NewDevice(gpu.SpecRTX3090())
	cfg := core.IntraObjectConfig()
	cfg.KernelWhitelist = w.IntraKernels
	if stream {
		cfg.Streaming = core.StreamingConfig{Enabled: true, WindowKernels: streamWindow}
	}
	prof := core.Attach(dev, cfg)
	if err := w.Run(dev, prof, v); err != nil {
		tb.Fatal(err)
	}
	return prof.Finish()
}

// reportBytes serializes a report both ways the identity contract covers:
// the JSON export and the verbose text render.
func reportBytes(tb testing.TB, rep *core.Report) ([]byte, []byte) {
	tb.Helper()
	js, err := json.Marshal(rep)
	if err != nil {
		tb.Fatal(err)
	}
	var txt bytes.Buffer
	rep.Render(&txt, true)
	return js, txt.Bytes()
}

// TestStreamingDeterminism pins the streaming identity contract across the
// whole workload suite: for every workload, both variants, and both analysis
// schedules (the default and GOMAXPROCS=1), the streaming run's Finish report —
// produced from incrementally finalized windows over a trace whose raw
// payloads were retired — must serialize and render byte-identically to the
// offline run's. Report.Heat is deliberately outside both serializations,
// so the only difference a streamed report is allowed to have never shows
// up here.
func TestStreamingDeterminism(t *testing.T) {
	for _, name := range workloads.Names() {
		for _, v := range []workloads.Variant{workloads.VariantNaive, workloads.VariantOptimized} {
			for _, oneProc := range []bool{false, true} {
				pipe := "parallel"
				if oneProc {
					pipe = "sequential"
				}
				t.Run(fmt.Sprintf("%s/%s/%s", name, v, pipe), func(t *testing.T) {
					if oneProc {
						pinOneProc(t)
					}
					// One call site for both runs: allocation call paths
					// embed source lines, so distinct call sites would
					// differ trivially.
					var reps [2]*core.Report
					for i, stream := range []bool{false, true} {
						reps[i] = profiledReport(t, name, v, stream)
					}
					offline, streamed := reps[0], reps[1]
					offJS, offTxt := reportBytes(t, offline)
					strJS, strTxt := reportBytes(t, streamed)
					if !bytes.Equal(offJS, strJS) {
						t.Errorf("streaming JSON differs from offline (%d vs %d bytes)", len(strJS), len(offJS))
					}
					if !bytes.Equal(offTxt, strTxt) {
						t.Errorf("streaming render differs from offline (%d vs %d bytes)", len(strTxt), len(offTxt))
					}
					if streamed.Heat == nil {
						t.Fatal("streaming report has no heat map")
					}
					if len(streamed.Heat.Epochs) == 0 {
						t.Error("streaming report closed no epochs")
					}
					if !streamed.Trace.Streamed {
						t.Error("streamed trace not marked Streamed")
					}
					if offline.Heat != nil {
						t.Error("offline report unexpectedly has a heat map")
					}
				})
			}
		}
	}
}

// trainingEpochs is the test training loop's length: enough kernel-epochs
// that the streaming run closes many windows and the offline run's retained
// per-access state dominates its footprint.
const trainingEpochs = 64

// activationFloats sizes the per-epoch activation tensor. Each epoch
// allocates one, touches it from an instrumented kernel, and frees it —
// the dnnpool/multistream shape where offline analysis retains every freed
// object's access maps until Finish.
const activationFloats = 16 * 1024

// runTrainingLoop drives a deterministic training-loop-shaped workload
// directly on the device: persistent weights plus a freed-per-epoch
// activation. onEpoch (optional) runs between epochs, after the epoch's
// free — the interleave point for mid-run snapshots.
func runTrainingLoop(tb testing.TB, dev *gpu.Device, prof *core.Profiler, epochs int, onEpoch func(epoch int)) {
	tb.Helper()
	weights, err := dev.Malloc(4 * activationFloats)
	if err != nil {
		tb.Fatal(err)
	}
	prof.Annotate(weights, "weights", 4)
	for e := 0; e < epochs; e++ {
		act, err := dev.Malloc(4 * activationFloats)
		if err != nil {
			tb.Fatal(err)
		}
		prof.Annotate(act, fmt.Sprintf("activation_%03d", e), 4)
		if err := dev.Memset(act, 0, 4*activationFloats, nil); err != nil {
			tb.Fatal(err)
		}
		err = dev.LaunchFunc(nil, "train_step", gpu.Dim1(1), gpu.Dim1(64), func(ctx *gpu.ExecContext) {
			// Strided touches keep the simulated run fast while still
			// allocating full per-element access maps for both objects.
			for i := 0; i < activationFloats; i += 8 {
				w := ctx.LoadF32(weights + gpu.DevicePtr(4*i))
				ctx.StoreF32(act+gpu.DevicePtr(4*i), w+float32(e))
				ctx.StoreF32(weights+gpu.DevicePtr(4*i), w+1)
			}
		})
		if err != nil {
			tb.Fatal(err)
		}
		if err := dev.Free(act); err != nil {
			tb.Fatal(err)
		}
		if onEpoch != nil {
			onEpoch(e)
		}
	}
	if err := dev.Free(weights); err != nil {
		tb.Fatal(err)
	}
}

// trainingConfig is the training-loop profiling configuration: intra-object
// granularity with no whitelist (every launch instrumented).
func trainingConfig(stream bool) core.Config {
	cfg := core.IntraObjectConfig()
	if stream {
		cfg.Streaming = core.StreamingConfig{Enabled: true, WindowKernels: streamWindow}
	}
	return cfg
}

// TestSnapshotThenFinish pins that taking mid-run snapshots — interleaved
// with collection, every few epochs — leaves the final Finish report
// byte-identical to a run that never snapshotted, for the offline and the
// streaming pipeline, at the default GOMAXPROCS and at 1. Snapshots must
// not close streaming windows early, mutate detector state, or
// double-publish anything that Finish serializes.
func TestSnapshotThenFinish(t *testing.T) {
	for _, stream := range []bool{false, true} {
		for _, oneProc := range []bool{false, true} {
			mode := "offline"
			if stream {
				mode = "streaming"
			}
			pipe := "parallel"
			if oneProc {
				pipe = "sequential"
			}
			t.Run(mode+"/"+pipe, func(t *testing.T) {
				if oneProc {
					pinOneProc(t)
				}
				run := func(snapshots bool) *core.Report {
					dev := gpu.NewDevice(gpu.SpecRTX3090())
					prof := core.Attach(dev, trainingConfig(stream))
					var onEpoch func(int)
					if snapshots {
						onEpoch = func(e int) {
							if e%10 == 3 {
								if rep := prof.Snapshot(); len(rep.Findings) == 0 {
									t.Error("mid-run snapshot found nothing")
								}
							}
						}
					}
					runTrainingLoop(t, dev, prof, trainingEpochs, onEpoch)
					return prof.Finish()
				}
				// One call site for both runs: allocation call paths embed
				// source lines, so distinct call sites would differ trivially.
				var reps [2]*core.Report
				for i, snapshots := range []bool{false, true} {
					reps[i] = run(snapshots)
				}
				plainJS, plainTxt := reportBytes(t, reps[0])
				snapJS, snapTxt := reportBytes(t, reps[1])
				if !bytes.Equal(plainJS, snapJS) {
					t.Errorf("interleaved snapshots changed the Finish JSON (%d vs %d bytes)", len(snapJS), len(plainJS))
				}
				if !bytes.Equal(plainTxt, snapTxt) {
					t.Errorf("interleaved snapshots changed the Finish render (%d vs %d bytes)", len(snapTxt), len(plainTxt))
				}
			})
		}
	}
}

// residentAfterTraining runs the training loop under one pipeline and
// returns the profiler's resident heap footprint: live heap growth over the
// pre-attach baseline, measured after a GC with the profiler still attached
// (the collection-complete, pre-Finish moment a long-running service would
// sit at). The device and profiler are returned so the measurement can't be
// deflated by collecting them early.
func residentAfterTraining(tb testing.TB, stream bool) (uint64, *core.Profiler, *gpu.Device) {
	tb.Helper()
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	dev := gpu.NewDevice(gpu.SpecRTX3090())
	prof := core.Attach(dev, trainingConfig(stream))
	runTrainingLoop(tb, dev, prof, trainingEpochs, nil)
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if after.HeapAlloc < before.HeapAlloc {
		return 0, prof, dev
	}
	return after.HeapAlloc - before.HeapAlloc, prof, dev
}

// TestStreamingResidentMemory pins the tentpole's memory bound on a
// dnnpool/multistream-style long run: with windows closing every few
// kernels, the collector's resident set — access lists, per-invocation API
// payloads, intra-object access maps — must stay bounded by the open window
// plus compact summaries. The acceptance bar is a >= 50% reduction of the
// offline pipeline's resident footprint.
func TestStreamingResidentMemory(t *testing.T) {
	offline, offProf, offDev := residentAfterTraining(t, false)
	streamed, strProf, strDev := residentAfterTraining(t, true)
	t.Logf("resident after collection: offline %d bytes, streaming %d bytes (%.1f%%)",
		offline, streamed, 100*float64(streamed)/float64(offline))
	if offline == 0 {
		t.Fatal("offline run registered no heap growth; probe is broken")
	}
	if streamed*2 > offline {
		t.Errorf("streaming resident footprint %d not <= 50%% of offline %d", streamed, offline)
	}
	// Both profilers must still produce identical reports after the probe.
	offJS, _ := reportBytes(t, offProf.Finish())
	strJS, _ := reportBytes(t, strProf.Finish())
	if !bytes.Equal(offJS, strJS) {
		t.Errorf("post-probe reports differ (%d vs %d bytes)", len(strJS), len(offJS))
	}
	runtime.KeepAlive(offDev)
	runtime.KeepAlive(strDev)
}

// TestStreamingHeatMapAndExports covers the temporal surfaces of a
// streaming run: the heat map's shape, its text render, its Perfetto track,
// and the profile-save gate on retired traces.
func TestStreamingHeatMapAndExports(t *testing.T) {
	rep := profiledReport(t, "simplemulticopy", workloads.VariantNaive, true)
	h := rep.Heat
	if h == nil || len(h.Epochs) == 0 {
		t.Fatal("no heat map epochs")
	}
	if h.WindowKernels != streamWindow {
		t.Errorf("WindowKernels = %d, want %d", h.WindowKernels, streamWindow)
	}
	var last uint64
	for i, e := range h.Epochs {
		if i > 0 && e.FirstAPI != last+1 {
			t.Errorf("epoch %d starts at API %d, want %d", i, e.FirstAPI, last+1)
		}
		last = e.LastAPI
		for j := 1; j < len(e.Cells); j++ {
			if e.Cells[j-1].Object >= e.Cells[j].Object {
				t.Errorf("epoch %d cells not strictly sorted by object", i)
			}
		}
	}

	var txt bytes.Buffer
	rep.RenderHeatMap(&txt)
	if !strings.Contains(txt.String(), "temporal heat map") {
		t.Errorf("heat-map render missing header:\n%s", txt.String())
	}

	var guiOut bytes.Buffer
	if err := rep.Export(&guiOut, core.FormatGUI); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(guiOut.String(), "Temporal heat map") {
		t.Error("GUI export missing the heat-map track")
	}

	if err := rep.Export(&bytes.Buffer{}, core.FormatProfile); err == nil {
		t.Error("saving a streamed profile should fail (access history retired)")
	}

	// Offline reports render a stub instead of a map.
	offline := profiledReport(t, "simplemulticopy", workloads.VariantNaive, false)
	txt.Reset()
	offline.RenderHeatMap(&txt)
	if !strings.Contains(txt.String(), "no heat map") {
		t.Errorf("offline heat-map render missing stub:\n%s", txt.String())
	}
}

// BenchmarkSnapshotStreaming measures a mid-run Snapshot over the
// incrementally maintained streaming state (summary graph, tracked
// timestamp bound, arrival-time detector accumulators) against
// BenchmarkSnapshotOffline, the full offline re-analysis of the same
// collection state. The streaming appendix of EXPERIMENTS.md records the
// measured ratio.
func BenchmarkSnapshotStreaming(b *testing.B) {
	benchmarkSnapshot(b, true)
}

// BenchmarkSnapshotOffline is the offline counterpart of
// BenchmarkSnapshotStreaming.
func BenchmarkSnapshotOffline(b *testing.B) {
	benchmarkSnapshot(b, false)
}

func benchmarkSnapshot(b *testing.B, stream bool) {
	dev := gpu.NewDevice(gpu.SpecRTX3090())
	prof := core.Attach(dev, trainingConfig(stream))
	runTrainingLoop(b, dev, prof, trainingEpochs, nil)
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(prof.Snapshot().Findings)
	}
	b.ReportMetric(float64(n), "findings")
}
