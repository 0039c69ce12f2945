package main

import "drgpum/internal/core"

// addCounts adds a run's counters to m under prefix.
func addCounts(m map[string]uint64, prefix string, c workCounts) {
	m[prefix+"apis"] += c.APIs
	m[prefix+"launches"] += c.Launches
	m[prefix+"objects"] += c.Objects
	m[prefix+"findings"] += c.Findings
	m[prefix+"accesses"] += c.Accesses
	m[prefix+"transactions"] += c.Transactions
	m[prefix+"ideal_transactions"] += c.Ideal
	m[prefix+"l1_hits"] += c.L1Hits
	m[prefix+"l2_hits"] += c.L2Hits
	m[prefix+"modeled_cycles"] += c.ModeledCycles
	m[prefix+"host_maps"] += c.HostMaps
	m[prefix+"sim_cycles"] += c.SimCycles
	m[prefix+"export_bytes"] += c.ExportedBytes
}

// perUnit is seconds per unit in nanoseconds (0 for no units).
func perUnit(seconds float64, units uint64) float64 {
	if units == 0 {
		return 0
	}
	return seconds * 1e9 / float64(units)
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// costLayer fills the cost model's deterministic metrics from the counters
// of runs made under prefix.
func costLayer(m map[string]float64, c map[string]uint64, prefix string) {
	tx := c[prefix+"transactions"]
	l1 := c[prefix+"l1_hits"]
	m["costmodel.transactions"] = float64(tx)
	m["costmodel.excess_ratio"] = ratio(tx, c[prefix+"ideal_transactions"])
	m["costmodel.l1_hit_ratio"] = ratio(l1, tx)
	m["costmodel.l2_hit_ratio"] = ratio(c[prefix+"l2_hits"], tx-l1)
	m["costmodel.modeled_cycles"] = float64(c[prefix+"modeled_cycles"])
}

// ingestLayers fills the replay and analysis-stage metrics from the probe
// spans. The recorder's ingest time is the replay with it minus the replay
// without it, interleaved in the same pass.
func ingestLayers(m map[string]float64, agg map[string]*layerTime, c map[string]uint64) {
	m["trace.replay_s"] = roundMedian(agg, "replay.collector")
	m["trace.ns_per_api"] = perUnit(m["trace.replay_s"], c["replay.apis"])
	m["intraobj.replay_s"] = roundMedian(agg, "replay.ingest") - m["trace.replay_s"]
	m["intraobj.ns_per_access"] = perUnit(m["intraobj.replay_s"], c["replay.accesses"])
	m["intraobj.detect_s"] = roundMedian(agg, "intraobj.detect")
	m["depgraph.annotate_s"] = roundMedian(agg, "depgraph.annotate")
	m["peak.analyze_s"] = roundMedian(agg, "peak.analyze")
	m["objlevel.detect_s"] = roundMedian(agg, "objlevel.detect")
	m["advisor.marginal_s"] = roundMedian(agg, "advisor.marginal")
	m["advisor.advise_s"] = roundMedian(agg, "advisor.advise")
}

// stageTotal sums the standalone analysis-stage times.
func stageTotal(m map[string]float64) float64 {
	return m["intraobj.detect_s"] + m["depgraph.annotate_s"] + m["peak.analyze_s"] +
		m["objlevel.detect_s"] + m["advisor.marginal_s"] + m["advisor.advise_s"]
}

// exportLayers fills the export metrics from the export spans.
func exportLayers(m map[string]float64, agg map[string]*layerTime) {
	m["core.export_text_s"] = roundMedian(agg, "export."+core.FormatText.String())
	m["core.export_json_s"] = roundMedian(agg, "export.json")
	m["gui.export_s"] = roundMedian(agg, "export."+core.FormatGUI.String()) +
		roundMedian(agg, "export."+core.FormatHTML.String())
	m["profile.save_s"] = roundMedian(agg, "export."+core.FormatProfile.String())
}

// noEngine zeroes the engine and serve layers of a workload that calls the
// profiler directly.
func noEngine(m map[string]float64) {
	for _, k := range []string{"engine.hit_ratio", "engine.misses", "engine.run_ms",
		"serve.submit_ms", "serve.status_ms", "serve.report_ms", "serve.polls_per_session"} {
		m[k] = 0
	}
}
