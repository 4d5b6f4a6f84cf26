package main

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names (bench_test.go holds the two together); a per-layer
// metric a workload has nothing to say about is reported as 0.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees. Every workload reports all
// of them, from an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"requests_per_s", "1/s"},
	{"visible_p50_ms", "ms"},
	{"allocs_per_request", "count"},
	{"alloc_bytes_per_request", "bytes"},
}

// perLayer is what single layers do, from a traced run: timings of calls
// into each layer's public functions (layers.go), counts read from the
// deployment (deploy.go), and the benchmark's own bookkeeping.
var perLayer = []metricDef{
	{"tracepoint.here_disabled_ns", "ns"},
	{"tracepoint.here_woven_ns", "ns"},
	{"tracepoint.here_woven8_ns", "ns"},
	{"tracepoint.here_pack_ns", "ns"},
	{"tracepoint.here_hbjoin_ns", "ns"},
	{"tracepoint.here_sampled_kept_ns", "ns"},
	{"tracepoint.here_sampled_out_ns", "ns"},
	{"tracepoint.here_spans_on_ns", "ns"},
	{"tracepoint.here_parallel_sharded_ns", "ns"},
	{"tracepoint.here_parallel_unsharded_ns", "ns"},
	{"tracepoint.weave_us", "us"},

	{"advice.invoke_ns", "ns"},
	{"advice.fold_ns", "ns"},
	{"advice.fold_new_group_ns", "ns"},
	{"advice.drain_ns_per_group", "ns"},

	{"baggage.new_request_ns", "ns"},
	{"baggage.pack_ns", "ns"},
	{"baggage.unpack_ns", "ns"},
	{"baggage.serialize_ns", "ns"},
	{"baggage.deserialize_ns", "ns"},
	{"baggage.split_ns", "ns"},
	{"baggage.join_ns", "ns"},
	{"baggage.bytes_per_request", "bytes"},
	{"baggage.tuples_per_request", "count"},

	{"agent.emit_ns", "ns"},
	{"agent.flush_ms", "ms"},
	{"agent.flush_ns_per_row", "ns"},
	{"agent.deliver_install_us", "us"},
	{"agent.flushes", "count"},
	{"agent.reports", "count"},
	{"agent.batches", "count"},
	{"agent.rows_out", "count"},
	{"agent.report_bytes", "bytes"},
	{"agent.tuples_emitted", "count"},
	{"agent.dropped", "count"},

	{"wire.marshal_report_ns_per_row", "ns"},
	{"wire.unmarshal_report_ns_per_row", "ns"},
	{"wire.report_bytes_per_row", "bytes"},
	{"wire.marshal_heartbeat_ns", "ns"},
	{"wire.unmarshal_heartbeat_ns", "ns"},
	{"wire.heartbeat_bytes", "bytes"},
	{"wire.marshal_install_us", "us"},
	{"wire.unmarshal_install_us", "us"},

	{"bus.publish_inproc_ns", "ns"},
	{"bus.tcp_small_rtt_us", "us"},
	{"bus.tcp_large_mb_per_s", "MB/s"},
	{"bus.server_frames", "count"},
	{"bus.server_bytes", "bytes"},
	{"bus.server_queued_max", "count"},
	{"bus.health_bytes", "bytes"},
	{"bus.link_drops", "count"},
	{"bus.link_reconnects", "count"},
	{"bus.wire_bytes_per_request", "bytes"},

	{"combiner.merge_ns_per_row", "ns"},
	{"combiner.flush_ms", "ms"},
	{"combiner.rows_in", "count"},
	{"combiner.rows_out", "count"},
	{"combiner.reduction_ratio", "ratio"},
	{"combiner.frames_out", "count"},
	{"combiner.pending_max", "count"},

	{"core.merge_ns_per_row", "ns"},
	{"core.rows_ms", "ms"},
	{"core.install_ms", "ms"},
	{"core.uninstall_ms", "ms"},
	{"core.reports_merged", "count"},

	{"query.parse_us", "us"},
	{"plan.compile_us", "us"},

	{"simtime.sleep_wake_ns", "ns"},
	{"netsim.flow_us", "us"},
	{"scenario.herd.wall_s", "s"},
	{"scenario.multi-tenant-storm.wall_s", "s"},
	{"scenario.limplock.wall_s", "s"},

	{"process.cpu_s", "s"},
	{"process.gc_cpu_share", "ratio"},
	{"process.peak_rss_mb", "MB"},
	{"process.heap_inuse_mb_max", "MB"},
	{"process.goroutines_max", "count"},

	{"bench.generator_ns_per_request", "ns"},
	{"bench.trace_overhead_share", "ratio"},
	{"bench.attribution_unexplained_share", "ratio"},
	{"bench.reporter_backlog_max", "count"},
	{"bench.visible_p95_ms", "ms"},
	{"bench.overhead_ns_per_request", "ns"},
	{"bench.install_to_first_row_ms", "ms"},
	{"bench.failed_share", "ratio"},
}
