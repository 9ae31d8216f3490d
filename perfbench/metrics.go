package main

// metricDef names one reported metric. The tables below are the single
// source of the benchmark's metric set; BENCHMARK.json at the repository
// root lists the same names, units and directions (the package test
// checks that the two agree).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Exact marks a metric computed from simulated counters over the
	// run's fixed op prefix: a function of the seed alone, so two runs
	// with one seed report it identically.
	Exact bool
	// Moves names, for a per-layer metric, the end-to-end metric and
	// workload a change to that layer should move.
	Moves string
}

// endToEnd is what a user of the simulator sees, measured untraced.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "op_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "sim_cycles_per_op", Unit: "cycles", Better: "lower", Exact: true},
	{Name: "sim_overhead_pct", Unit: "%", Better: "lower", Exact: true},
}

// perLayer is measured by the traced run.
var perLayer = []metricDef{
	{Name: "analysis.compile_ms", Unit: "ms", Better: "lower", Moves: "setup_s, all workloads"},
	{Name: "seccomp.filter_build_ms", Unit: "ms", Better: "lower", Moves: "setup_s, all workloads"},
	{Name: "seccomp.insns_per_syscall", Unit: "insns", Better: "lower", Exact: true, Moves: "sim_cycles_per_op, serve"},
	{Name: "vm.insns_per_op", Unit: "insns", Better: "lower", Exact: true, Moves: "ops_per_s and op_p50_ms, serve"},
	{Name: "vm.self_us_per_op", Unit: "us", Better: "lower", Moves: "ops_per_s and op_p50_ms, serve"},
	{Name: "vm.ns_per_insn", Unit: "ns", Better: "lower", Moves: "ops_per_s and op_p50_ms, serve"},
	{Name: "vm.new_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s and alloc_bytes_per_op, fleet-churn"},
	{Name: "kernel.syscalls_per_op", Unit: "count", Better: "lower", Exact: true, Moves: "op_p50_ms, serve"},
	{Name: "kernel.self_us_per_op", Unit: "us", Better: "lower", Moves: "op_p50_ms, serve"},
	{Name: "monitor.attach_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s, alloc_bytes_per_op and peak_rss_mb, fleet-churn"},
	{Name: "monitor.attach_alloc_bytes", Unit: "B", Better: "lower", Moves: "ops_per_s, alloc_bytes_per_op and peak_rss_mb, fleet-churn"},
	{Name: "monitor.traps_per_op", Unit: "count", Better: "lower", Exact: true, Moves: "sim_overhead_pct and op_p50_ms, fs-trap"},
	{Name: "monitor.trap_us_p50", Unit: "us", Better: "lower", Moves: "sim_overhead_pct and op_p50_ms, fs-trap"},
	{Name: "monitor.trap_us_p99", Unit: "us", Better: "lower", Moves: "sim_overhead_pct and op_p50_ms, fs-trap"},
	{Name: "monitor.self_us_per_op", Unit: "us", Better: "lower", Moves: "sim_overhead_pct and op_p50_ms, fs-trap"},
	{Name: "monitor.sim_cycles_per_op", Unit: "cycles", Better: "lower", Exact: true, Moves: "sim_overhead_pct and op_p50_ms, fs-trap"},
	{Name: "monitor.sim_fetch_cycles_per_op", Unit: "cycles", Better: "lower", Exact: true, Moves: "sim_overhead_pct, fs-trap"},
	{Name: "monitor.sim_unwind_cycles_per_op", Unit: "cycles", Better: "lower", Exact: true, Moves: "sim_overhead_pct, fs-trap"},
	{Name: "monitor.sim_ct_cycles_per_op", Unit: "cycles", Better: "lower", Exact: true, Moves: "sim_overhead_pct, fs-trap"},
	{Name: "monitor.sim_cf_cycles_per_op", Unit: "cycles", Better: "lower", Exact: true, Moves: "sim_overhead_pct, fs-trap"},
	{Name: "monitor.sim_ai_cycles_per_op", Unit: "cycles", Better: "lower", Exact: true, Moves: "sim_overhead_pct, fs-trap"},
	{Name: "monitor.sim_sf_cycles_per_op", Unit: "cycles", Better: "lower", Exact: true, Moves: "sim_overhead_pct, fs-trap"},
	{Name: "monitor.sim_cache_lookup_cycles_per_op", Unit: "cycles", Better: "lower", Exact: true, Moves: "sim_overhead_pct, fs-trap"},
	{Name: "monitor.cache_hit_ratio", Unit: "ratio", Better: "higher", Exact: true, Moves: "sim_cycles_per_op, fleet-churn"},
	{Name: "shadow.hook_calls_per_op", Unit: "count", Better: "lower", Exact: true, Moves: "op_p50_ms, serve"},
	{Name: "shadow.self_us_per_op", Unit: "us", Better: "lower", Moves: "op_p50_ms, serve"},
	{Name: "workload.init_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s, fleet-churn"},
	{Name: "fleet.restarts_per_tenant", Unit: "count", Better: "lower", Exact: true, Moves: "failed ops, fleet-churn"},
	{Name: "fleet.kills_per_tenant", Unit: "count", Better: "lower", Exact: true, Moves: "failed ops, fleet-churn"},
	{Name: "fleet.reloads_per_tenant", Unit: "count", Better: "higher", Exact: true, Moves: "failed ops, fleet-churn"},
	{Name: "runtime.gc_cpu_pct", Unit: "%", Better: "lower", Moves: "ops_per_s, on the workload alloc_bytes_per_op moves"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Moves: "none: traced vs untraced time of the op prefix, for information"},
}

// metricsOf returns the table a run reports: per-layer when traced,
// end-to-end otherwise.
func metricsOf(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}
