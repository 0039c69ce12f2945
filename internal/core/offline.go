package core

import (
	"errors"
	"io"

	"drgpum/internal/gpu"
	"drgpum/internal/profile"
)

// errStreamedProfile is returned by SaveProfile for streamed traces.
var errStreamedProfile = errors.New("core: streamed trace has retired its access history; profiles require an offline (non-streaming) run")

// SaveProfile serializes the report's trace and run metadata as a profile
// file that AnalyzeProfile can re-analyze later — the persistent form of
// the paper's online-collector/offline-analyzer split (§4). Streamed traces
// cannot be saved: window retirement already discarded the per-invocation
// payloads a profile round-trips.
func (r *Report) SaveProfile(w io.Writer) error {
	if r.Trace.Streamed {
		return errStreamedProfile
	}
	return profile.Save(r.Trace, profile.Meta{
		Device:    r.Device,
		Cycles:    r.Elapsed,
		PeakBytes: r.MemStats.Peak,
	}, w)
}

// AnalyzeProfile loads a saved profile and re-runs the offline analyses —
// dependency ordering, peak mining, and the object-level detectors — under
// the given thresholds. Because every §3 threshold is user-tunable, this
// lets a saved run be re-examined under different settings without
// re-executing the application. Intra-object findings are an online
// product (the access maps live only during the run) and are not
// recomputed; re-analysis covers the seven object-level patterns.
func AnalyzeProfile(rd io.Reader, cfg Config) (*Report, error) {
	t, meta, err := profile.Load(rd)
	if err != nil {
		return nil, err
	}
	rep := analyzeTrace(analysisInput{trace: t, cfg: cfg})
	rep.Device = meta.Device
	rep.MemStats = gpu.AllocStats{Peak: meta.PeakBytes}
	rep.Elapsed = meta.Cycles
	return rep, nil
}
