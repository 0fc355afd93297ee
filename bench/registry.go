package main

// metric names one reported number: its unit and which direction is better.
type metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them in an untraced run; BENCHMARK.json fixes the
// bound by which each may worsen. README.md says what each means on each
// workload.
var endToEnd = []metric{
	{"setup_s", "s", lower},
	{"jobs_per_s", "jobs/s", higher},
	{"decision_p50_ms", "ms", lower},
	{"decision_p90_ms", "ms", lower},
	{"carbon_vs_baseline_pct", "%", lower},
	{"water_vs_baseline_pct", "%", lower},
	{"tolerance_violation_pct", "%", lower},
	{"peak_rss_mb", "MB", lower},
}

// perLayer are the metrics of single layers, reported by a traced run. A
// metric that does not apply to a workload reads 0 there.
var perLayer = []metric{
	// Reported end to end by the issue that defined the benchmark, kept
	// here because they are 0, negative or undefined on some workload.
	{"failed_frac", "ratio", lower},
	{"recovery_s", "s", lower},
	{"carbon_saving_pct", "%", higher},
	{"water_saving_pct", "%", higher},

	{"client.late_p99_ms", "ms", lower},
	{"client.late_raw_p99_ms", "ms", lower},
	{"client.invalid_segment_frac", "ratio", lower},
	{"host.steal_frac", "ratio", lower},
	{"client.jobs_per_frame", "jobs", higher},
	{"client.samples", "count", higher},
	{"client.decision_whole_p50_ms", "ms", lower},
	{"client.decision_whole_p90_ms", "ms", lower},
	{"client.decision_p99_ms", "ms", lower},
	{"client.decision_p999_ms", "ms", lower},
	{"client.within_10ms_frac", "ratio", higher},
	{"client.r24000.decision_p50_ms", "ms", lower},
	{"client.r24000.decision_p90_ms", "ms", lower},
	{"client.r24000.failed_frac", "ratio", lower},

	{"runtime.gc_cycles", "count", lower},
	{"runtime.gc_pause_ms", "ms", lower},
	{"runtime.heap_peak_mb", "MB", lower},
	{"runtime.alloc_bytes_per_job", "B", lower},

	{"wire.encode_submit_ns_per_job", "ns", lower},
	{"wire.decode_submit_ns_per_job", "ns", lower},
	{"wire.encode_decisions_ns_per_job", "ns", lower},
	{"wire.decode_decisions_ns_per_job", "ns", lower},
	{"wire.bytes_per_job", "B", lower},
	{"wire.submit_rtt_p50_ms", "ms", lower},

	{"server.send_to_decided_p50_ms", "ms", lower},
	{"server.send_to_decided_p90_ms", "ms", lower},
	{"server.push_lag_p50_ms", "ms", lower},
	{"server.push_lag_p90_ms", "ms", lower},
	{"server.latency_reconcile_frac", "ratio", lower},
	{"server.rounds", "count", lower},
	{"server.jobs_per_round", "jobs", higher},
	{"server.round_p50_ms", "ms", lower},
	{"server.stage.ingest_s", "s", lower},
	{"server.stage.solve_s", "s", lower},
	{"server.stage.wal_append_s", "s", lower},
	{"server.stage.wal_fsync_s", "s", lower},
	{"server.stage.publish_s", "s", lower},
	{"server.submit_ns_per_job", "ns", lower},
	{"server.submit_wal_ns_per_job", "ns", lower},
	{"server.page_ns_per_decision", "ns", lower},
	{"server.poll_lag_p50_ms", "ms", lower},
	{"server.poll_lag_p90_ms", "ms", lower},
	{"server.http_submit_s", "s", lower},
	{"server.drain_s", "s", lower},

	{"wal.records", "count", lower},
	{"wal.fsyncs", "count", lower},
	{"wal.fsync_p50_ms", "ms", lower},
	{"wal.fsync_p99_ms", "ms", lower},
	{"wal.bytes_per_decision", "B", lower},
	{"wal.append_ns_per_record", "ns", lower},
	{"wal.sync_p50_ms", "ms", lower},
	{"wal.replay_ns_per_record", "ns", lower},
	{"wal.recover_records_per_s", "1/s", higher},
	{"wal.on_real_disk", "count", higher},

	{"core.schedule_s", "s", lower},
	{"core.schedule_share", "ratio", lower},
	{"core.schedule_ns_per_pending", "ns", lower},
	{"core.rounds", "count", lower},
	{"core.softened_rounds", "count", lower},
	{"core.mean_batch", "jobs", higher},
	{"core.max_batch", "jobs", higher},
	{"cluster.step_self_s", "s", lower},

	{"milp.nodes", "count", lower},
	{"milp.warm_start_frac", "ratio", higher},
	{"lp.simplex_iters", "count", lower},
	{"lp.iters_per_round", "count", lower},
	{"milp.solve_us.m16", "us", lower},
	{"milp.solve_us.m64", "us", lower},
	{"milp.solve_us.m512", "us", lower},
	{"lp.solve_us.m512", "us", lower},
	{"lp.reprice_us.m512", "us", lower},

	{"fleet.submit_ns_per_job", "ns", lower},
	{"fleet.page_ns_per_decision", "ns", lower},
	{"fleet.merge_lag_p50_ms", "ms", lower},
	{"fleet.merge_lag_p90_ms", "ms", lower},
	{"fleet.shard_imbalance", "ratio", lower},

	{"region.env_s", "s", lower},
	{"trace.gen_s", "s", lower},
	{"trace_overhead_frac", "ratio", lower},
}
