package main

// metricDef names a metric as BENCHMARK.json does. bench_test.go checks
// that the two lists stay equal, both directions.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: share of the parent's median a change may worsen it by
}

// endToEnd are what a user of the system sees, the same seven on every
// workload. Failures are not a metric: they are the "failed" count of
// every result, against "attempted". Each bound is about three times the
// run-to-run spread measured in this sandbox (README.md, "Measured spread").
var endToEnd = []metricDef{
	{"throughput_ops_s", "ops/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"alloc_bytes_per_op", "B", "lower", 0.06},
	{"heap_live_mb", "MB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are single-layer metrics from the traced run; the prefix is the
// package under internal/ (tail, gc, trace, bench: the harness itself).
// S = span of the traced phase, M = stage mirror, C = count.
var perLayer = []metricDef{
	{Name: "value.build_req_ns", Unit: "ns", Better: "lower"},
	{Name: "value.build_req_allocs", Unit: "count", Better: "lower"},

	{Name: "wire.encode_value_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_value_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.frame_append_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.frame_read_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.codec_allocs", Unit: "count", Better: "lower"},
	{Name: "wire.req_bytes", Unit: "B", Better: "lower"},
	{Name: "wire.resp_bytes", Unit: "B", Better: "lower"},
	{Name: "wire.encode_image_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_image_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.image_bytes", Unit: "B", Better: "lower"},

	{Name: "transport.call_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.calls_per_op", Unit: "count", Better: "lower"},
	{Name: "transport.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "transport.null_call_tcp_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.null_call_inproc_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.null_call_allocs", Unit: "count", Better: "lower"},
	{Name: "transport.resilient_overhead_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.write_syscalls_per_op", Unit: "count", Better: "lower"},
	{Name: "transport.read_syscalls_per_op", Unit: "count", Better: "lower"},
	{Name: "transport.stream_mb_s", Unit: "MB/s", Better: "higher"},

	{Name: "naming.parse_id_ns", Unit: "ns", Better: "lower"},
	{Name: "naming.registry_lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "naming.new_id_ns", Unit: "ns", Better: "lower"},

	{Name: "security.decide_ns", Unit: "ns", Better: "lower"},
	{Name: "security.decide_policy_ns", Unit: "ns", Better: "lower"},

	{Name: "mscript.parse_fn_ns", Unit: "ns", Better: "lower"},
	{Name: "mscript.script_overhead_ns", Unit: "ns", Better: "lower"},

	{Name: "core.invoke_native_ns", Unit: "ns", Better: "lower"},
	{Name: "core.invoke_ext_ns", Unit: "ns", Better: "lower"},
	{Name: "core.invoke_meta_ns", Unit: "ns", Better: "lower"},
	{Name: "core.get_ns", Unit: "ns", Better: "lower"},
	{Name: "core.invoke_alt_caller_ns", Unit: "ns", Better: "lower"},
	{Name: "core.invoke_script_ns", Unit: "ns", Better: "lower"},
	{Name: "core.mutate_pair_ns", Unit: "ns", Better: "lower"},
	{Name: "core.level_push_pop_ns", Unit: "ns", Better: "lower"},
	{Name: "core.invoke_after_mutate_ns", Unit: "ns", Better: "lower"},
	{Name: "core.snapshot_ns", Unit: "ns", Better: "lower"},
	{Name: "core.from_image_ns", Unit: "ns", Better: "lower"},
	{Name: "core.build_object_ns", Unit: "ns", Better: "lower"},
	{Name: "core.target_invoke_ns", Unit: "ns", Better: "lower"},
	{Name: "core.body_ns", Unit: "ns", Better: "lower"},

	{Name: "persist.put_ns", Unit: "ns", Better: "lower"},
	{Name: "persist.get_ns", Unit: "ns", Better: "lower"},
	{Name: "persist.sync_ns", Unit: "ns", Better: "lower"},
	{Name: "persist.self_ns", Unit: "ns", Better: "lower"},
	{Name: "persist.puts_per_op", Unit: "count", Better: "lower"},
	{Name: "persist.deletes_per_op", Unit: "count", Better: "lower"},
	{Name: "persist.put_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "persist.wal_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "persist.write_amp", Unit: "ratio", Better: "lower"},
	{Name: "persist.segments_end", Unit: "count", Better: "lower"},
	{Name: "persist.garbage_frac_end", Unit: "ratio", Better: "lower"},
	{Name: "persist.reopen_ns", Unit: "ns", Better: "lower"},

	{Name: "hadas.client_self_ns", Unit: "ns", Better: "lower"},
	{Name: "hadas.server_self_ns", Unit: "ns", Better: "lower"},
	{Name: "hadas.home_lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "hadas.dispatch_self_ns", Unit: "ns", Better: "lower"},
	{Name: "hadas.add_apos_ns_per_apo", Unit: "ns", Better: "lower"},
	{Name: "hadas.import_ns_per_amb", Unit: "ns", Better: "lower"},
	{Name: "hadas.link_ns", Unit: "ns", Better: "lower"},
	{Name: "hadas.persist_all_ns_per_apo", Unit: "ns", Better: "lower"},
	{Name: "hadas.bootstrap_ns_per_apo", Unit: "ns", Better: "lower"},

	{Name: "tail.latency_p99_us", Unit: "us", Better: "lower"},
	{Name: "tail.p99_samples_beyond", Unit: "count", Better: "higher"},
	{Name: "tail.latency_p999_us", Unit: "us", Better: "lower"},
	{Name: "tail.p999_samples_beyond", Unit: "count", Better: "higher"},
	{Name: "gc.cycles_per_s", Unit: "1/s", Better: "lower"},
	{Name: "gc.pause_us_per_s", Unit: "us/s", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.unattributed_frac", Unit: "ratio", Better: "lower"},
	{Name: "bench.solo_latency_p50_us", Unit: "us", Better: "lower"},
	{Name: "bench.harness_allocs_per_op", Unit: "count", Better: "lower"},
}
