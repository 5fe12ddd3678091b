package main

// The metric tables. BENCHMARK.json at the repository root repeats the
// names, units and directions (a test keeps the two in step) and adds
// the regression bounds; README.md is the glossary.

type metricDef struct {
	name, unit string
}

// endToEnd lists the user-visible metrics that carry a regression
// bound. Every workload reports every one of them, with tracing off.
// They are the ones that repeat within their bound on this host class:
// quality, space and set-up. See README.md, "Noise and bounds".
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"completeness", "ratio"},
	{"modelled_cost_per_key", "steps"},
	{"stored_bytes_per_key_byte", "ratio"},
	{"rss_peak_mb", "MB"},
}

// timings lists the user-visible wall-clock metrics. The same run
// measures them, also with tracing off, but on a shared 2-vCPU host
// they swing by 20-80 % between runs of the same code, so they carry no
// bound: BENCHMARK.json lists them with the per-layer metrics and the
// traced invocation reports them.
var timings = []metricDef{
	{"probes_per_s", "1/s"},
	{"link_p50_ms", "ms"},
	{"link_p95_ms", "ms"},
	{"upsert_tuples_per_s", "1/s"},
	{"upsert_p50_ms", "ms"},
	{"upsert_p95_ms", "ms"},
	{"checkpoint_s", "s"},
	{"cold_start_snapshot_s", "s"},
	{"cold_start_replay_s", "s"},
}

// ledger lists the per-layer metrics, one group per module of the
// repository.
var ledger = []metricDef{
	{"service.handler_us_per_req", "us"},
	{"service.codec_self_us_per_req", "us"},
	{"service.pool_self_us_per_req", "us"},
	{"service.transport_self_us_per_req", "us"},
	{"service.queue_wait_ms_mean", "ms"},
	{"service.req_bytes_per_key", "B"},
	{"service.resp_bytes_per_key", "B"},
	{"service.allocs_per_req", "count"},
	{"service.gc_pause_ms_per_s", "ms/s"},
	{"service.span_queue_share", "ratio"},
	{"service.span_session_share", "ratio"},
	{"service.span_probe_share", "ratio"},
	{"service.span_merge_share", "ratio"},

	{"adaptivelink.session_us_per_key", "us"},
	{"adaptivelink.control_self_us_per_key", "us"},
	{"adaptivelink.approx_probe_share", "ratio"},
	{"adaptivelink.wasted_probe_ratio", "ratio"},

	{"adaptive.note_batch_ns_per_key", "ns"},
	{"adaptive.cost_per_key", "ratio"},
	{"adaptive.escalations_per_1k_keys", "count"},
	{"adaptive.switches_per_1k_keys", "count"},

	{"normalize.apply_ns_per_key", "ns"},

	{"qgram.decompose_ns_per_key", "ns"},
	{"qgram.grams_per_key", "count"},

	{"shardmap.routes_ns_per_key", "ns"},
	{"shardmap.shards_per_approx_probe", "count"},

	{"hashidx.exact_lookup_ns_per_key", "ns"},
	{"hashidx.qgram_probe_us_per_key", "us"},
	{"hashidx.candidates_per_probe", "count"},

	{"simfn.verify_ns_per_candidate", "ns"},
	{"simfn.match_per_candidate_ratio", "ratio"},

	{"join.probe_exact_ns_per_key", "ns"},
	{"join.probe_approx_us_per_key", "us"},
	{"join.self_us_per_key", "us"},
	{"join.upsert_ms_per_batch", "ms"},
	{"join.clone_ms_per_upsert", "ms"},
	{"join.snapshot_swaps_per_upsert", "count"},
	{"join.scratch_miss_ratio", "ratio"},
	{"join.build_s", "s"},

	{"store.wal_append_ms_mean", "ms"},
	{"store.wal_fsync_ms_mean", "ms"},
	{"store.wal_bytes_per_tuple", "B"},
	{"store.snapshot_encode_s", "s"},
	{"store.snapshot_decode_s", "s"},
	{"store.snapshot_decode_allocs", "count"},
	{"store.snapshot_bytes_per_tuple", "B"},
	{"store.open_replay_ms_per_batch", "ms"},

	{"cluster.view_probe_us_per_key", "us"},
	{"cluster.fanout_self_us_per_req", "us"},
	{"cluster.groups_per_approx_key", "count"},
	{"cluster.write_fanout_ms_per_upsert", "ms"},
	{"cluster.routed_single_ratio", "ratio"},
	{"cluster.node_requests_per_link", "count"},
	{"cluster.hints_queued", "count"},
	{"cluster.node_errors", "count"},

	{"obs.trace_overhead_pct", "%"},

	{"benchmark.link_p99_ms", "ms"},
	{"benchmark.segment_spread_pct", "%"},
}

// perLayer is what --trace 1 reports on every workload: the unbounded
// timings, then the ledger.
var perLayer = append(append([]metricDef(nil), timings...), ledger...)

// measured is what a plain run measures: the bounded metrics and the
// timings.
var measured = append(append([]metricDef(nil), endToEnd...), timings...)

// sample is one measured metric: the value and how many observations
// stand behind it.
type sample struct {
	Value float64
	Unit  string
	N     int
	// Note qualifies the value, e.g. a percentile with too few samples
	// beyond it.
	Note string
}

// metricSet collects a run's metrics by name.
type metricSet map[string]sample

// missing lists the defs the run did not measure.
func (m metricSet) missing(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		if _, ok := m[d.name]; !ok {
			out = append(out, d.name)
		}
	}
	return out
}
