package main

// metricDef names one metric of BENCHMARK.json.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics an untraced run prints, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"elems_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"ok_ratio", "ratio", "higher"},
	{"peak_rss_MB", "MB", "lower"},
	{"probe_latency_p50_ms", "ms", "lower"},
}

// perLayer are the metrics a traced run prints, on every workload.
// Times are host time except the sim_ ones, which are modelled cycles.
var perLayer = []metricDef{
	{"wire.encode_us", "us", "lower"},
	{"wire.decode_us", "us", "lower"},
	{"wire.bytes_per_op", "bytes", "lower"},
	{"server.request_ms_p50", "ms", "lower"},
	{"server.request_ms_tail", "ms", "lower"},
	{"server.queue_depth_max", "count", "lower"},
	{"server.rejected_ratio", "ratio", "lower"},
	{"server.batch_elements_mean", "count", "higher"},
	{"server.frames_per_flush", "count", "higher"},
	{"client.outside_server_ms_p50", "ms", "lower"},
	{"client.latency_tail_ms", "ms", "lower"},
	{"probe.latency_tail_ms", "ms", "lower"},
	{"backend.block_us", "us", "lower"},
	{"backend.blocks_per_op", "count", "lower"},
	{"hw.host_us_per_block", "us", "lower"},
	{"hw.sim_cycles_per_block", "cycles", "lower"},
	{"hw.sim_cycle_error_pct", "%", "lower"},
	{"hw.host_ns_per_sim_cycle", "ns", "lower"},
	{"hw.words_kept_ratio", "ratio", "higher"},
	{"pasta.block_us", "us", "lower"},
	{"xof.schedule_us_per_block", "us", "lower"},
	{"keccak.permute_ns", "ns", "lower"},
	{"pasta.matrix_row_ns", "ns", "lower"},
	{"pasta.affine_us", "us", "lower"},
	{"pasta.mix_sbox_us", "us", "lower"},
	{"transcipher.eval_ms_mean", "ms", "lower"},
	{"transcipher.cache_hit_ratio", "ratio", "higher"},
	{"transcipher.cache_lookups", "count", "higher"},
	{"transcipher.queue_wait_ms_p50", "ms", "lower"},
	{"transcipher.upload_s", "s", "lower"},
	{"transcipher.rejected_budget", "count", "lower"},
	{"hhe.keygen_s", "s", "lower"},
	{"hhe.eval_keystream_ms", "ms", "lower"},
	{"hhe.cached_transcipher_ms", "ms", "lower"},
	{"hhe.allocs_per_block", "count", "lower"},
	{"bfv.mul_ms", "ms", "lower"},
	{"bfv.rotate_ms", "ms", "lower"},
	{"bfv.mulplain_ms", "ms", "lower"},
	{"bfv.add_us", "us", "lower"},
	{"rlwe.ntt_us", "us", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.bounding_share_pct", "%", "higher"},
}
