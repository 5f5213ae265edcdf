package main

import (
	"encoding/json"
)

// metricSpec declares one metric of the benchmark contract. Bound is the
// share of the parent's median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics have none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd are the metrics a user of the system sees. Every workload reports
// every one of them, and none is ever zero; loss is reported through the
// result's attempted/failed/correct fields instead of a metric that must be
// zero. Each bound is the step of 5% nearest above three times the widest
// spread (quartile distance over ten seeds, as a share of the median) the
// metric showed on any workload, 25% at most (see README, "Bounds").
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"events_per_s", "1/s", "higher", 0.15},
	{"round_ms_p50", "ms", "lower", 0.15},
	{"round_ms_p90", "ms", "lower", 0.20},
	{"cpu_s_per_mevent", "s", "lower", 0.20},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"retained_heap_mb", "MB", "lower", 0.15},
	{"checkpoint_mb", "MB", "lower", 0.10},
	{"snapshot_ms", "ms", "lower", 0.25},
	{"density_err", "jsd", "lower", 0.20},
	{"transition_err", "jsd", "lower", 0.15},
	{"query_err", "rel", "lower", 0.25},
}

// perLayer are the metrics of single layers (layer = package name), taken
// from outside the program by the traced run. A workload in which a layer
// does not run reports 0 for it.
var perLayer = []metricSpec{
	// Set-up, one span each.
	{"datagen.generate_s", "s", "lower", 0},
	{"trajectory.discretize_s", "s", "lower", 0},
	{"dataset.write_s", "s", "lower", 0},
	{"spatial.quadtree_build_ms", "ms", "lower", 0},
	// Harness-side stream decode (wire only): in the wall, not in the round.
	{"dataset.read_s", "s", "lower", 0},
	// Device-side kernels.
	{"ldp.perturb_ns_per_report", "ns", "lower", 0},
	{"ldp.fold_ns_per_report", "ns", "lower", 0},
	{"remote.pack_ns_per_report", "ns", "lower", 0},
	// Round trips as the client sees them and as the handler serves them
	// (median per call); their difference is encode + HTTP.
	{"remote.presence_rtt_ms", "ms", "lower", 0},
	{"remote.plan_rtt_ms", "ms", "lower", 0},
	{"remote.assignments_rtt_ms", "ms", "lower", 0},
	{"remote.report_rtt_ms", "ms", "lower", 0},
	{"remote.finalize_rtt_ms", "ms", "lower", 0},
	{"remote.presence_srv_ms", "ms", "lower", 0},
	{"remote.plan_srv_ms", "ms", "lower", 0},
	{"remote.assignments_srv_ms", "ms", "lower", 0},
	{"remote.report_srv_ms", "ms", "lower", 0},
	{"remote.finalize_srv_ms", "ms", "lower", 0},
	{"remote.transport_ms_per_round", "ms", "lower", 0},
	{"remote.report_srv_ns_per_report", "ns", "lower", 0},
	{"remote.finalize_unattributed_ms", "ms", "lower", 0},
	// Bytes on the wire, from the curator's own ledger.
	{"remote.wire_bytes_per_event", "B/event", "lower", 0},
	{"remote.bytes_in_presence", "B/event", "lower", 0},
	{"remote.bytes_in_assignments", "B/event", "lower", 0},
	{"remote.bytes_out_assignments", "B/event", "lower", 0},
	{"remote.bytes_in_report", "B/report", "lower", 0},
	{"remote.requests_per_round", "count", "lower", 0},
	{"remote.http_errors", "count", "lower", 0},
	{"remote.synthetic_fetch_ms", "ms", "lower", 0},
	{"remote.synthetic_mb", "MB", "lower", 0},
	{"remote.snapshot_ms", "ms", "lower", 0},
	// The program's own stage timers, per pass.
	{"pipeline.user_side_s", "s", "lower", 0},
	{"pipeline.model_construction_s", "s", "lower", 0},
	{"pipeline.dmu_s", "s", "lower", 0},
	{"pipeline.synthesis_s", "s", "lower", 0},
	{"pipeline.shards2_speedup", "x", "higher", 0},
	// The facade/engine round and what the stage timers do not explain.
	{"core.process_s", "s", "lower", 0},
	{"core.unattributed_s", "s", "lower", 0},
	{"core.snapshot_ms", "ms", "lower", 0},
	{"core.checkpoint_bytes_per_point", "B/point", "lower", 0},
	{"core.synthetic_ms", "ms", "lower", 0},
	{"synthesis.ns_per_point", "ns", "lower", 0},
	{"synthesis.retained_bytes_per_point", "B/point", "lower", 0},
	// Adaptive layout.
	{"relayout.migrations", "count", "higher", 0},
	{"relayout.switch_round_ms_max", "ms", "lower", 0},
	{"trajectory.rediscretize_s", "s", "lower", 0},
	{"monitor.alarms", "count", "lower", 0},
	{"monitor.final_divergence_js", "jsd", "lower", 0},
	// Allocation.
	{"allocation.reports_per_event", "ratio", "higher", 0},
	{"allocation.rounds_collecting", "count", "higher", 0},
	{"allocation.max_window_eps", "eps", "lower", 0},
	// Verification cost and the health of the benchmark itself.
	{"metrics.evaluate_s", "s", "lower", 0},
	{"bench.round_attributed_share", "ratio", "higher", 0},
	{"bench.trace_overhead", "ratio", "lower", 0},
	{"bench.passes", "count", "higher", 0},
	{"bench.pass_s", "s", "lower", 0},
	{"bench.rounds_sampled", "count", "higher", 0},
}

// runSeconds is how long one run measures.
const runSeconds = 10

// benchmarkJSON renders the contract file from the tables above, so the two
// cannot drift (bench_test.go compares the file on disk with this).
func benchmarkJSON() ([]byte, error) {
	type workloadEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eEntry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerEntry struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []workloadEntry `json:"workloads"`
		EndToEnd   []e2eEntry      `json:"end_to_end"`
		PerLayer   []layerEntry    `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadEntry{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2eEntry{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerEntry{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
