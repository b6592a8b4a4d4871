package main

import "presto/internal/obs"

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions one for one (the package test checks it).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// Workload names, in the order they run.
const (
	wServeHot     = "serve_hot"
	wFleetScatter = "fleet_scatter"
	wFlashAging   = "flash_aging"
	wLiveMixed    = "live_mixed"
	wCluster2Site = "cluster_2site"
)

// endToEnd is what a user of the system sees, measured with tracing
// off. Every one is reported on every workload and is never 0 (the
// driver's contract), so the metrics that exist on some workloads only —
// the clock-step rates, the simulated quantities and write_amp — live in
// perLayer.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"lat_p99_ms", "ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"live_heap_mb", "MB", "lower", 0.10},
}

// perLayer is measured in the traced run: spans the harness records
// around its own calls and supplied seams, deltas of the program's
// public stats, direct probes of single layers, and the program's
// existing obs.Trace for the route mix. A metric a workload's layers do
// not produce reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		// Demoted from end-to-end: they exist on one workload only (see
		// README). Simulated counts repeat exactly for a seed.
		{"failed_share", "share", "lower", 0},
		{"advance_vh_per_s", "vh/s", "higher", 0},
		{"advance_p99_ms", "ms", "lower", 0},
		{"virt_lat_p99_ms", "ms", "lower", 0},
		{"mote_mj_per_answer", "mJ", "lower", 0},
		{"bound_violation_share", "share", "lower", 0},
		{"write_amp", "ratio", "lower", 0},

		{"serve.handler_ms_p50", "ms", "lower", 0},
		{"serve.self_ms_p50", "ms", "lower", 0},
		{"serve.http_overhead_ms_p50", "ms", "lower", 0},
		{"serve.cache_hit_share", "share", "higher", 0},
		{"serve.cache_evictions_per_op", "count", "lower", 0},
		{"serve.throttled", "count", "lower", 0},
		{"serve.cache_lookup_ns", "ns", "lower", 0},
		{"serve.cache_insert_ns", "ns", "lower", 0},
		{"serve.handler_hit_allocs", "count", "lower", 0},

		{"query.decode_spec_ns", "ns", "lower", 0},
		{"query.decode_spec_allocs", "count", "lower", 0},
		{"query.encode_result_ns", "ns", "lower", 0},
		{"query.encode_result_allocs", "count", "lower", 0},
		{"query.merge_rounds_ns", "ns", "lower", 0},
		{"query.scatter_codec_ns", "ns", "lower", 0},
		{"wire.frame_codec_ns", "ns", "lower", 0},

		{"core.submit_ms_p50", "ms", "lower", 0},
		{"core.submit_ms_p99", "ms", "lower", 0},
		{"core.gather_local_ms_p50", "ms", "lower", 0},
		{"core.queryone_allocs", "count", "lower", 0},
		{"core.shard_speedup", "ratio", "higher", 0},
		{"core.round_allocs", "count", "lower", 0},
		{"core.rounds_delivered_share", "share", "higher", 0},
		{"core.advance_us_per_mote_hour", "us", "lower", 0},
		{"core.replica_served_share", "share", "higher", 0},
		{"core.replica_bypassed", "count", "lower", 0},

		{"store.routed_per_op", "count", "lower", 0},
		{"store.archive_served_share", "share", "higher", 0},
		{"store.archive_stale_share", "share", "lower", 0},
		{"store.replica_routed_share", "share", "higher", 0},
		{"store.append_ns", "ns", "lower", 0},
		{"store.query_range_recent_us", "us", "lower", 0},
		{"store.query_range_aged_us", "us", "lower", 0},
		{"store.read_amp", "ratio", "lower", 0},
		{"store.pages_read_per_op", "count", "lower", 0},
		{"store.pages_written_per_krec", "count", "lower", 0},
		{"store.compactions", "count", "lower", 0},
		{"store.wavelet_chunks", "count", "lower", 0},
		{"store.dropped", "count", "lower", 0},

		{"proxy.answers_cache_share", "share", "higher", 0},
		{"proxy.answers_model_share", "share", "higher", 0},
		{"proxy.answers_pull_share", "share", "lower", 0},
		{"proxy.answers_timeout_share", "share", "lower", 0},
		{"proxy.answers_spatial_share", "share", "higher", 0},
		{"proxy.answers_archive_share", "share", "higher", 0},
		{"proxy.pulls_per_answer", "count", "lower", 0},
		{"proxy.pulls_coalesced_share", "share", "higher", 0},
		{"proxy.pulls_timed_out", "count", "lower", 0},
		{"proxy.staleness_pulls", "count", "lower", 0},
		{"proxy.pushes_per_mote_day", "count", "lower", 0},

		{"mote.energy_mj_per_mote_day", "mJ", "lower", 0},
		{"mote.radio_share", "share", "lower", 0},
		{"mote.wakeups_per_answer", "count", "lower", 0},

		{"model.bootstrap_ms", "ms", "lower", 0},
		{"gen.traces_ms", "ms", "lower", 0},
		{"scenario.generate_ms", "ms", "lower", 0},

		{"cluster.lease_step_ms_p50", "ms", "lower", 0},
		{"cluster.lease_step_ms_p99", "ms", "lower", 0},
		{"cluster.site_rtt_ms_p50", "ms", "lower", 0},
		{"cluster.site_rtt_ms_p99", "ms", "lower", 0},
		{"cluster.coord_self_ms_p50", "ms", "lower", 0},
		{"cluster.frames_per_op", "count", "lower", 0},
		{"cluster.wire_bytes_per_op", "B", "lower", 0},
		{"cluster.site_errs", "count", "lower", 0},
		{"cluster.overhead_ratio", "ratio", "lower", 0},
		{"cluster.migrate_ms", "ms", "lower", 0},
		{"snap.domain_snapshot_ms", "ms", "lower", 0},
		{"snap.domain_bytes", "B", "lower", 0},
	}
	for _, k := range obs.RouteKinds() {
		defs = append(defs, metricDef{"obs.route_share." + k.String(), "share", "higher", 0})
	}
	return append(defs,
		metricDef{"bench.trace_overhead_share", "share", "lower", 0},
		metricDef{"bench.unattributed_share", "share", "lower", 0},
	)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report fills a metric set from measured values: every name in defs
// appears, with 0 for the ones this workload's layers do not produce.
func report(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}
