package main

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct{ name, unit string }

// perLayer lists every per-layer metric the traced run prints, on every
// workload; a layer that does no work on a workload reports 0.
var perLayer = []layerMetric{
	// Read kernel (mathx, physics, flash): read_retry, soft_decode.
	{"mathx.gauss_ns", "ns"},
	{"flash.begin_read_us", "us"},
	{"flash.begin_reads_per_op", "count"},
	{"flash.sense_us", "us"},
	// ecc.
	{"ecc.cap_decode_us", "us"},
	{"ecc.ldpc_decode_us", "us"},
	{"ecc.ldpc_iters_mean", "count"},
	{"ecc.ldpc_converged_frac", "ratio"},
	{"ecc.ldpc_success_pct", "%"},
	// sentinel.
	{"sentinel.infer_us", "us"},
	{"sentinel.infers_per_read", "count"},
	// retry: read_retry.
	{"retry.read_us.table", "us"},
	{"retry.read_us.sentinel", "us"},
	{"retry.read_us.sentinel_history", "us"},
	{"retry.self_share", "ratio"},
	{"retry.senses_per_read.table", "count"},
	{"retry.senses_per_read.sentinel", "count"},
	{"retry.senses_per_read.sentinel_history", "count"},
	{"retry.first_shot_frac.table", "ratio"},
	{"retry.first_shot_frac.sentinel", "ratio"},
	{"retry.first_shot_frac.sentinel_history", "ratio"},
	{"retry.hist_hit_frac", "ratio"},
	{"retry.reduction_pct", "%"},
	{"retry.uncorrectable_frac", "ratio"},
	// trace, ftl, ssdsim: trace_replay (fleet metrics: serve_read).
	{"trace.next_ns", "ns"},
	{"ftl.write_us", "us"},
	{"ftl.gc_relocations_per_write", "count"},
	{"ftl.erases", "count"},
	{"ftl.write_amp", "ratio"},
	{"ssdsim.replay_ns_per_req", "ns"},
	{"ssdsim.build_sampler_s", "s"},
	{"ssdsim.calibrations", "count"},
	{"ssdsim.worn_blocks", "count"},
	{"ssdsim.uncorrectable_frac", "ratio"},
	{"ssdsim.fleet_submit_us", "us"},
	{"ssdsim.fleet_queue_wait_us", "us"},
	// serve: serve_read.
	{"serve.http_self_us", "us"},
	{"serve.shed", "count"},
	{"serve.queue_full", "count"},
	{"serve.deadline", "count"},
	{"serve.drain_ms", "ms"},
	// The open loop at a fixed rate, from due time, and how late its
	// generator sent.
	{"serve_p50_ms", "ms"},
	{"serve_p99_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	// Tails too unsteady on a shared host to bound end to end, from the
	// untraced pass: host latency p90/p99 per operation and the
	// simulated read latency p99.
	{"op_p90_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"sim_read_us_p99", "sim_us"},
	// The traced run itself.
	{"bench.trace_overhead_pct", "%"},
	{"share.kernel_pct", "%"},
	{"share.ecc_pct", "%"},
	{"share.sentinel_pct", "%"},
	{"share.retry_pct", "%"},
	{"share.trace_pct", "%"},
	{"share.ftl_pct", "%"},
	{"share.ssdsim_pct", "%"},
	{"share.serve_pct", "%"},
	{"share.bench_pct", "%"},
}
