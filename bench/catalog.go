package main

// The catalog is the runner's half of the contract BENCHMARK.json states:
// every workload and every metric, with unit and direction. bench_test.go
// checks the two agree, so a name added on one side only fails the tests.

type workloadDef struct {
	Name string
	Why  string
}

type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

var workloads = []workloadDef{
	{"sim-sort", "fig7 sort at rate 0.5, -scale 2: shuffle-heavy giant fan-ins; netmodel.refresh is half of CPU and cancels dwarf fired events, so netmodel and queue work must show here"},
	{"sim-wordcount", "fig7 wordcount at rates 0.3 and 0.5: the same layers through many short reads and DFS writes; a netmodel or queue change tuned on sim-sort that costs small flows shows here"},
	{"sim-fleet", "3960 V + 40 D, one sleep-sort, MOON-Hybrid, serial: 4000 heartbeating trackers keep a large event backlog, so calendar-vs-heap, cluster and trace generation are decided here"},
	{"svc-open", "moonbenchd child driven open-loop at 50 submissions/s, polls, reports and lists beside submits: engine, transport and sched with no simulator; registry and server changes show only here"},
}

// endToEnd is reported by every workload with --trace 0; none may read 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer is reported by every workload with --trace 1; a layer the
// workload bypasses reads 0.
var perLayer = []metricDef{
	// Whole run: read these first.
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"op_samples", "count", "higher"},
	{"host.noise_ratio", "ratio", "lower"},
	{"fail_ratio", "ratio", "lower"},
	{"trace_overhead_ratio", "ratio", "lower"},

	{"runtime.cpu_ms_per_op", "ms", "lower"},
	{"runtime.alloc_mb_per_op", "MB", "lower"},
	{"runtime.gc_cpu_share", "ratio", "lower"},
	{"other.cpu_share", "ratio", "lower"},

	{"sim.events_fired", "count", "lower"},
	{"sim.events_canceled", "count", "lower"},
	{"sim.cancel_fire_ratio", "ratio", "lower"},
	{"sim.queue_compactions", "count", "lower"},
	{"sim.cpu_share", "ratio", "lower"},
	{"sim.host_us_per_fired_event", "us", "lower"},
	{"sim.schedule_fire_ns_4k", "ns", "lower"},
	{"sim.schedule_fire_ns_100k", "ns", "lower"},
	{"sim.schedule_cancel_ns", "ns", "lower"},

	{"netmodel.flows_started", "count", "lower"},
	{"netmodel.bytes_delivered", "B", "lower"},
	{"netmodel.flow_stalls", "count", "lower"},
	{"netmodel.cpu_share", "ratio", "lower"},
	{"netmodel.fanin_us_per_flow", "us", "lower"},
	{"netmodel.transfer_cancel_ns", "ns", "lower"},

	{"dfs.read_bytes", "B", "lower"},
	{"dfs.write_bytes", "B", "lower"},
	{"dfs.write_retries", "count", "lower"},
	{"dfs.read_stalls", "count", "lower"},
	{"dfs.replications_issued", "count", "lower"},
	{"dfs.cpu_share", "ratio", "lower"},

	{"mapred.task_launches", "count", "lower"},
	{"mapred.attempts_killed", "count", "lower"},
	{"mapred.speculative_issued", "count", "lower"},
	{"mapred.speculative_waste_ratio", "ratio", "lower"},
	{"mapred.makespan_s", "s", "lower"},
	{"mapred.cpu_share", "ratio", "lower"},

	{"cluster.suspensions", "count", "lower"},
	{"cluster.cpu_share", "ratio", "lower"},
	{"trace.cpu_share", "ratio", "lower"},
	{"rng.cpu_share", "ratio", "lower"},
	{"core.cpu_share", "ratio", "lower"},
	{"workload.cpu_share", "ratio", "lower"},
	{"trace.fleet_gen_ms", "ms", "lower"},

	{"scenario.cpu_share", "ratio", "lower"},
	{"harness.cpu_share", "ratio", "lower"},
	{"scenario.parse_compile_us", "us", "lower"},
	{"harness.paper_scale_ms", "ms", "lower"},
	{"harness.sweep_speedup", "ratio", "higher"},

	{"metrics.cpu_share", "ratio", "lower"},
	{"sched.cpu_share", "ratio", "lower"},
	{"metrics.counter_add_ns", "ns", "lower"},
	{"metrics.nil_counter_add_ns", "ns", "lower"},
	{"sched.offer_ns", "ns", "lower"},

	{"service.submit_ms_p50", "ms", "lower"},
	{"service.poll_ms_p50", "ms", "lower"},
	{"service.poll_ms_p99", "ms", "lower"},
	{"service.polls_per_op", "1/op", "lower"},
	{"service.report_ms_p50", "ms", "lower"},
	{"service.list_ms_first", "ms", "lower"},
	{"service.list_ms_last", "ms", "lower"},
	{"service.rejected", "count", "lower"},
	{"service.rss_kb_per_op", "kB/op", "lower"},
	{"service.closed_loop_ops_per_s", "1/s", "higher"},
	{"service.handler_submit_us", "us", "lower"},

	{"engine.makespan_p50_ms", "ms", "lower"},
	{"engine.queue_wait_p50_ms", "ms", "lower"},
	{"engine.map_attempts", "1/op", "lower"},
	{"engine.reduce_attempts", "1/op", "lower"},
	{"engine.backup_copies", "1/op", "lower"},
	{"engine.churn_spec_ms", "ms", "lower"},
	{"engine.map_reexecs", "count", "lower"},
	{"engine.attempt_waste_ratio", "ratio", "lower"},
	{"engine.quiet_job_ms", "ms", "lower"},

	{"transport.sends", "count", "lower"},
	{"transport.retries", "count", "lower"},
	{"transport.lease_expiries", "count", "lower"},
	{"transport.retry_ratio", "ratio", "lower"},
	{"transport.roundtrip_us", "us", "lower"},
	{"transport.flaky_passthrough_us", "us", "lower"},

	{"loadgen.late_p99_ms", "ms", "lower"},
	{"loadgen.cpu_ms_per_op", "ms", "lower"},
}

// profiledLayers are the repro/internal packages a simulator CPU sample
// can be charged to; each has a <pkg>.cpu_share metric.
var profiledLayers = []string{
	"sim", "netmodel", "dfs", "mapred", "cluster", "trace", "rng",
	"core", "workload", "scenario", "harness", "metrics", "sched",
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
