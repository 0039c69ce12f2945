package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer of the program, recorded by the
// benchmark around the call (never inside the program).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Group  int    `json:"group"`  // one program run, round or session
	Round  int    `json:"round"`  // the pass, round or session index
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory. A nil or disabled tracer records
// nothing, so untraced runs pay one branch per call site. A tracer is
// used by one goroutine; concurrent clients each own one and the
// benchmark merges them when the run ends.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer(on bool, t0 time.Time) *tracer { return &tracer{on: on, t0: t0} }

// begin opens a span and returns its ID (-1 when tracing is off).
func (t *tracer) begin(name string, parent, group, round int) int {
	if t == nil || !t.on {
		return -1
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Group: group, Round: round, Name: name,
		Start: time.Since(t.t0).Nanoseconds(), End: -1,
	})
	return len(t.spans) - 1
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
}

// merge appends other's spans, renumbering their IDs and parents.
func (t *tracer) merge(other *tracer) {
	off := len(t.spans)
	for _, s := range other.spans {
		s.ID += off
		if s.Parent >= 0 {
			s.Parent += off
		}
		t.spans = append(t.spans, s)
	}
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	// self maps a round to the summed self time (seconds) of the name's
	// spans in that round.
	self map[int]float64
	// durs holds every span's full duration in seconds.
	durs []float64
}

// aggregate derives every span name's self time: a span's duration minus
// the part its direct children cover. Spans still open are skipped.
func aggregate(spans []span) map[string]*layerTime {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]*layerTime)
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{self: make(map[int]float64)}
			out[s.Name] = lt
		}
		lt.self[s.Round] += float64(s.End-s.Start-child[i]) / 1e9
		lt.durs = append(lt.durs, float64(s.End-s.Start)/1e9)
	}
	return out
}

// roundMedian is the median over rounds of a name's per-round self time
// (0 when the name never ran).
func roundMedian(agg map[string]*layerTime, name string) float64 {
	lt := agg[name]
	if lt == nil {
		return 0
	}
	rounds := make([]int, 0, len(lt.self))
	for r := range lt.self {
		rounds = append(rounds, r)
	}
	sort.Ints(rounds)
	vals := make([]float64, len(rounds))
	for i, r := range rounds {
		vals[i] = lt.self[r]
	}
	return median(vals)
}

// durMedian is the median full duration of a name's spans, in seconds.
func durMedian(agg map[string]*layerTime, name string) float64 {
	if lt := agg[name]; lt != nil {
		return median(lt.durs)
	}
	return 0
}

// writeSpans writes the spans of a traced run as one JSON document.
func writeSpans(dir, workload string, seed uint64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating span directory: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.json", workload, seed))
	body, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if err != nil {
		return "", fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, body, 0o644); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}
