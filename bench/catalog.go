package main

// catalog.go is the benchmark's contract in code: the workload names,
// every end-to-end metric with its regression bound, and every per-layer
// metric, each with unit and direction. /BENCHMARK.json states the same
// lists for the driver; bench_test.go keeps the two in lock-step.

// metricDef is one named metric. Bound is the share of the baseline's
// median by which an end-to-end metric may worsen before -compare (and
// the driver) call it a regression; per-layer metrics carry no bound.
// Each bound is at least three times the widest interquartile spread any
// workload showed for that metric over ten runs on ten seeds on a quiet
// 2-vCPU VM; noisy-neighbour phases push goodput's to 10–20%, which is
// why the timing bounds sit at the driver's cap (README "Steadiness").
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees. Every workload
// emits every one of them, none is ever 0, and an untraced run is their
// only source.
var endToEnd = []metricDef{
	// Verified content bytes of a round ÷ the round's wall time, median
	// over rounds. The one gated timing metric: every wall-clock number of
	// a CPU-bound workload follows the host (a noisy neighbour slows this
	// VM by 20–30% for a minute or more at a time), so each further one
	// gated would be one more way for an unchanged commit to "regress".
	{"goodput_MBps", "MB/s", "higher", 0.25},
	// Σ useful symbols ÷ Σ symbols received over every measured fetch.
	{"useful_ratio", "ratio", "higher", 0.03},
	// MemStats.Mallocs over the measured window ÷ symbols received.
	{"allocs_per_symbol", "count", "lower", 0.05},
	// Content generation, working-set encoding, plan expansion and
	// provider boot: what happens before the first round. Median of
	// several set-ups.
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the single-layer metrics of a traced run (layer = Go
// package). The first group is read off the traced end-to-end pass (or
// the cheap counters every pass keeps); the second is the single-threaded
// layer replay at the workload's k and block size. A metric that does not
// apply to a workload (wire counts on collab_swarm, whose transport the
// lab owns; scenario.* off collab_swarm) reads 0 there.
var perLayer = []metricDef{
	// The issue's end-to-end metrics that not every workload can emit, that
	// are 0 when all is well, or whose spread over ten seeds reached the
	// 0.25 the driver caps a bound at (fetch times and CPU seconds follow
	// the host; the p90 also follows which instances a seed drew) live
	// here, so the gated set stays uniform and steady (README
	// "Deviations"). Fetch times are StartFetch → verified bytes; on
	// collab_swarm they are the medians over runs of the lab's Result.P50
	// and Result.P95 (at 12 fetchers its nearest-rank P95 is the 11th of
	// 12: the p90).
	{"fetch.s_p50", "s", "lower", 0},
	{"fetch.s_p90", "s", "lower", 0},
	// getrusage user+sys over the measured window ÷ GB verified.
	{"runtime.cpu_s_per_GB", "s/GB", "lower", 0},
	{"fetch.decode_overhead", "ratio", "lower", 0},
	{"fetch.fail_ratio", "ratio", "lower", 0},
	{"wire.expansion", "ratio", "lower", 0},
	{"scenario.converge_s", "s", "lower", 0},
	{"scenario.origin_offload", "ratio", "higher", 0},

	{"peer.handshake_s_p50", "s", "lower", 0},
	{"peer.refreshes_per_fetch", "count", "lower", 0},
	{"peer.duplicates_per_fetch", "count", "lower", 0},
	{"peer.useful_ratio_min_sender", "ratio", "higher", 0},
	{"peer.summary_bloom_sessions", "count", "higher", 0},
	{"peer.summary_sketch_sessions", "count", "higher", 0},
	{"peer.summary_art_sessions", "count", "higher", 0},
	{"peer.redials_per_fetch", "count", "lower", 0},
	{"peer.stalls_per_fetch", "count", "lower", 0},
	{"peer.sessions_evicted_per_fetch", "count", "lower", 0},

	{"peermux.queue_depth_p50", "count", "lower", 0},
	{"peermux.queue_depth_p99", "count", "lower", 0},
	{"peermux.window_inflight_mean", "count", "higher", 0},
	{"peermux.channels_opened_per_fetch", "count", "lower", 0},

	{"node.slots_allocated_mean", "count", "higher", 0},
	{"node.window_allocated_mean", "count", "higher", 0},
	{"node.finish_spread", "ratio", "lower", 0},

	{"wire.down_bytes_per_fetch", "B", "lower", 0},
	{"wire.up_bytes_per_fetch", "B", "lower", 0},
	{"wire.control_share", "ratio", "lower", 0},
	{"wire.writes_per_symbol", "count", "lower", 0},
	{"wire.bytes_per_write", "B", "higher", 0},
	{"wire.dials_per_fetch", "count", "lower", 0},
	{"faultnet.shaped_delay_ms_mean", "ms", "lower", 0},

	{"scenario.fairness_spread", "ratio", "lower", 0},
	{"scenario.useful_share", "ratio", "higher", 0},
	{"scenario.live_conns_mean", "count", "higher", 0},
	{"scenario.window_inflight_mean", "count", "higher", 0},
	{"scenario.run_elapsed_s", "s", "lower", 0},
	{"scenario.failed_fetchers", "count", "lower", 0},

	{"runtime.cpu_cores_busy", "cores", "lower", 0},
	{"runtime.gc_cycles_per_fetch", "count", "lower", 0},
	{"runtime.gc_pause_ms_per_fetch", "ms", "lower", 0},
	{"runtime.alloc_bytes_per_content_byte", "ratio", "lower", 0},
	{"runtime.heap_inuse_peak_MB", "MB", "lower", 0},

	{"trace.overhead_share", "ratio", "lower", 0},
	{"trace.spans", "count", "lower", 0},

	// Layer replay.
	{"xorblock.xor_GBps", "GB/s", "higher", 0},
	{"fountain.encode_ns_per_symbol", "ns", "lower", 0},
	{"fountain.decode_ns_per_symbol", "ns", "lower", 0},
	{"fountain.decode_sharded_ns_per_symbol", "ns", "lower", 0},
	{"fountain.decode_allocs_per_symbol", "count", "lower", 0},
	{"recode.next_ns_per_symbol", "ns", "lower", 0},
	{"recode.add_ns_per_symbol", "ns", "lower", 0},
	{"recode.next_allocs_per_symbol", "count", "lower", 0},
	{"summary.bloom_build_ns_per_key", "ns", "lower", 0},
	{"summary.sketch_build_ns_per_key", "ns", "lower", 0},
	{"summary.art_build_ns_per_key", "ns", "lower", 0},
	{"summary.bloom_missing_ns_per_key", "ns", "lower", 0},
	{"summary.bloom_bytes_per_key", "B", "lower", 0},
	{"summary.art_bytes_per_key", "B", "lower", 0},
	{"summary.sketch_bytes", "B", "lower", 0},
	{"protocol.write_symbol_ns", "ns", "lower", 0},
	{"protocol.read_symbol_ns", "ns", "lower", 0},
	{"protocol.read_allocs_per_frame", "count", "lower", 0},
	{"protocol.header_bytes_per_frame", "B", "lower", 0},
	{"peermux.frame_ns_1ch", "ns", "lower", 0},
	{"peermux.frame_ns_16ch", "ns", "lower", 0},
	{"peermux.allocs_per_frame", "count", "lower", 0},
	{"peermux.open_channel_us", "us", "lower", 0},
	{"peer.session_ns_per_symbol", "ns", "lower", 0},
	{"node.overhead_share", "ratio", "lower", 0},
	{"node.store_put_ns", "ns", "lower", 0},
	{"waterfall.e2e_cpu_ns_per_symbol", "ns", "lower", 0},
	{"waterfall.accounted_cpu_ns_per_symbol", "ns", "lower", 0},
	{"waterfall.unaccounted_share", "ratio", "lower", 0},
}

// watched are the issue's end-to-end metrics that ended up ungated:
// -compare prints how they moved, and passes no verdict on them.
var watched = []string{
	"fetch.s_p50", "fetch.s_p90", "runtime.cpu_s_per_GB", "fetch.decode_overhead", "wire.expansion",
	"scenario.converge_s", "scenario.origin_offload",
}

// allMetrics is the whole catalog, end-to-end metrics first.
func allMetrics() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), perLayer...)
}

// runSeconds is how long the driver's form measures one workload.
const runSeconds = 20

// benchmarkManifest is /BENCHMARK.json: regenerate the file with
// `bash bench/run.sh -manifest > BENCHMARK.json` after changing this file
// or a workload's name or rationale.
func benchmarkManifest() map[string]any {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var ws []named
	for _, w := range workloads() {
		ws = append(ws, named{w.Name, w.Why})
	}
	return map[string]any{
		"command":     []string{"bash", "bench/run.sh"},
		"paths":       []string{"bench"},
		"run_seconds": runSeconds,
		"workloads":   ws,
		"end_to_end":  endToEnd,
		"per_layer":   perLayer, // a zero Bound is omitted: exactly name, unit, better
	}
}
