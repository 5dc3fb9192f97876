package main

// metricDef names a reported metric, its unit and which direction is
// better. BENCHMARK.json at the repository root lists the same entries.
type metricDef struct{ name, unit, better string }

// endToEnd lists the gated metrics; every run with --trace 0 reports all of
// them, on every workload.
var endToEnd = []metricDef{
	{"committed_tps", "tx/s", "higher"},
	{"commit_p50_ms", "ms", "lower"},
	{"commit_p99_ms", "ms", "lower"},
	{"cpu_us_per_tx", "us", "lower"},
	{"server_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer lists the per-layer metrics every run with --trace 1 reports. A
// layer a workload does not run reads 0 there (README.md says which).
var perLayer = func() []metricDef {
	defs := []metricDef{
		// /metrics deltas at the untraced window's edges (the sim's own
		// counters on sim-attack).
		{"core.tx_per_block", "tx/block", "higher"},
		{"transport.msgs_per_tx", "msg/tx", "lower"},
		{"transport.bytes_per_tx", "B/tx", "lower"},
		{"crypto.cache_hit_ratio", "ratio", "higher"},
		{"verifier.submitted_per_tx", "msg/tx", "lower"},
		{"proc.alloc_bytes_per_tx", "B/tx", "lower"},
		{"core.viewchanges", "count", "lower"},
		{"core.elections", "count", "lower"},
		{"core.splitvotes", "count", "lower"},
		// The generator's own validity and costs.
		{"gen.lag_p99_ms", "ms", "lower"},
		{"gen.cpu_frac", "CPU", "lower"},
		{"gen.samples", "count", "higher"},
		{"gen.window_p99_ms", "ms", "lower"},
		{"gen.sign_us", "us", "lower"},
		{"gen.send_us", "us", "lower"},
		{"gen.notif_verify_us", "us", "lower"},
	}
	// The traced in-process run.
	for _, k := range traceKinds {
		defs = append(defs, metricDef{"core.on_message_us." + k, "us", "lower"})
	}
	defs = append(defs,
		metricDef{"core.on_timer_us", "us", "lower"},
		metricDef{"core.busy_frac.leader", "ratio", "lower"},
		metricDef{"core.busy_frac.follower", "ratio", "lower"},
		metricDef{"runtime.queue_wait_us.p50", "us", "lower"},
		metricDef{"runtime.queue_wait_us.p99", "us", "lower"},
		metricDef{"traced.commit_p50_ms", "ms", "lower"},
		metricDef{"traced.committed_tps", "tx/s", "higher"},
	)
	// Replays of captured messages through public functions.
	for _, k := range codecKinds {
		defs = append(defs,
			metricDef{"codec.encode_ns." + k, "ns", "lower"},
			metricDef{"codec.decode_ns." + k, "ns", "lower"},
			metricDef{"codec.bytes." + k, "B", "lower"})
	}
	defs = append(defs,
		metricDef{"ledger.append_us", "us", "lower"},
		metricDef{"ledger.apply_us_per_tx", "us", "lower"},
		metricDef{"crypto.sign_us", "us", "lower"},
		metricDef{"crypto.verify_us", "us", "lower"},
		metricDef{"crypto.verify_cached_us", "us", "lower"},
		metricDef{"crypto.verifyqc_us", "us", "lower"},
		metricDef{"reputation.calcrp_us", "us", "lower"},
		metricDef{"pow.solve_ms", "ms", "lower"},
		metricDef{"pow.solve_iters", "count", "lower"},
		// The simulator.
		metricDef{"sim.events", "count", "lower"},
		metricDef{"sim.ns_per_event", "ns", "lower"},
		metricDef{"sim.tps_virtual", "tx/s", "higher"},
		metricDef{"sim.speed", "s/s", "higher"},
		metricDef{"sim.service_gap_ms", "ms", "lower"},
	)
	return defs
}()
