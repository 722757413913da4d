package main

// metricDef names one metric the harness prints. The two tables below
// are the benchmark's contract: BENCHMARK.json lists exactly these
// names, units and directions (a self-test compares them), and later
// issues refer to metrics by these names.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: allowed worsening, share of the parent's median
}

// runSeconds is the length of one run's timed window (BENCHMARK.json's
// run_seconds).
const runSeconds = 10

// quickSeconds is the window of `-quick` runs and of the self-tests.
const quickSeconds = 0.2

// endToEnd are the metrics a user of the system sees, measured with the
// bench's tracing off; the timed ones are scaled to the reference machine
// speed (speed.go). Every bound is the largest the contract allows: over
// ten seeds on the two-core reference box the scaled metrics still spread
// by 4-10 %, and a bound should be three times the spread. The batch
// latency percentiles spread by up to 23 % there and are per-layer
// metrics for that reason (README.md, "Noise").
var endToEnd = []metricDef{
	{"samples_per_s", "1/s", "higher", 0.25},
	{"cpu_s_per_ksample", "s/ksample", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are single-layer metrics from the traced run; layers are the
// repo's packages. They carry no bound.
var perLayer = []metricDef{
	{"trainer.batch_ms_p50", "ms", "lower", 0},
	{"trainer.batch_ms_p90", "ms", "lower", 0},

	{"fleet.mount_ms_p50", "ms", "lower", 0},
	{"fleet.mount_ms_p90", "ms", "lower", 0},
	{"fleet.dataplane_self_ms_p50", "ms", "lower", 0},
	{"fleet.dataplane_share", "ratio", "lower", 0},
	{"fleet.opens", "count", "higher", 0},
	{"fleet.node_skew", "ratio", "lower", 0},
	{"fleet.failovers", "count", "lower", 0},
	{"fleet.rebinds", "count", "lower", 0},

	{"viewserver.request_ms_p50", "ms", "lower", 0},
	{"viewserver.request_ms_p90", "ms", "lower", 0},
	{"viewserver.bytes_served_mb", "MB", "higher", 0},
	{"viewserver.wire_mb_per_s", "MB/s", "higher", 0},
	{"viewserver.zerocopy_ratio", "ratio", "higher", 0},
	{"viewserver.readahead_hit_ratio", "ratio", "higher", 0},
	{"viewserver.readahead_brakes", "count", "lower", 0},

	{"vfs.open_fds_end", "count", "lower", 0},
	{"vfs.sessions_end", "count", "lower", 0},

	{"core.materialize_ms_p50", "ms", "lower", 0},
	{"core.materialize_ms_p90", "ms", "lower", 0},
	{"core.materialize_share", "ratio", "lower", 0},
	{"core.boot_ms", "ms", "lower", 0},
	{"core.first_batch_ms", "ms", "lower", 0},
	{"core.premat_hit_ratio", "ratio", "higher", 0},
	{"core.demand_misses", "count", "lower", 0},
	{"core.frames_decoded", "count", "lower", 0},
	{"core.decode_amplification", "ratio", "lower", 0},
	{"core.gop_hit_ratio", "ratio", "higher", 0},
	{"core.gop_evictions", "count", "lower", 0},
	{"core.gop_readmissions", "count", "lower", 0},
	{"core.objects_reused_ratio", "ratio", "higher", 0},
	{"core.superset_hits", "count", "higher", 0},
	{"core.superset_hit_ratio", "ratio", "higher", 0},
	{"core.xsample_hits", "count", "higher", 0},
	{"core.decode_batch_ms_p50", "ms", "lower", 0},
	{"core.decode_batch_share", "ratio", "lower", 0},
	{"core.encode_batch_ms", "ms", "lower", 0},
	{"core.unattributed_share", "ratio", "lower", 0},

	{"sched.demand_wait_ms_p50", "ms", "lower", 0},
	{"sched.demand_wait_ms_p90", "ms", "lower", 0},
	{"sched.queue_wait_ms_p90", "ms", "lower", 0},
	{"sched.task_run_ms_p50", "ms", "lower", 0},
	{"sched.busy_share", "ratio", "lower", 0},
	{"sched.demand_runs", "count", "lower", 0},
	{"sched.premat_runs", "count", "higher", 0},
	{"sched.mode_switches", "count", "lower", 0},
	{"sched.sjf_decisions", "count", "lower", 0},
	{"sched.admission_rejected", "count", "lower", 0},
	{"sched.errors", "count", "lower", 0},

	{"storage.hit_ratio", "ratio", "higher", 0},
	{"storage.evictions", "count", "lower", 0},
	{"storage.spills", "count", "lower", 0},
	{"storage.promotions", "count", "lower", 0},
	{"storage.evict_storms", "count", "lower", 0},
	{"storage.spill_saved_mb", "MB", "higher", 0},
	{"storage.mem_mb_end", "MB", "lower", 0},
	{"storage.disk_mb_end", "MB", "lower", 0},
	{"storage.pinned_mb_end", "MB", "lower", 0},
	{"storage.put_us", "us", "lower", 0},
	{"storage.get_pinned_us", "us", "lower", 0},
	{"storage.promote_us", "us", "lower", 0},

	{"codec.seq_decode_us_per_frame", "us", "lower", 0},
	{"codec.random_access_ms", "ms", "lower", 0},
	{"codec.est_busy_share", "ratio", "lower", 0},

	{"augment.apply_us_per_frame", "us", "lower", 0},
	{"augment.est_busy_share", "ratio", "lower", 0},

	{"frame.encode_us_per_frame", "us", "lower", 0},
	{"frame.encode_fast_us_per_frame", "us", "lower", 0},
	{"frame.decode_us_per_frame", "us", "lower", 0},
	{"frame.pool_reuse_ratio", "ratio", "higher", 0},
	{"frame.est_busy_share", "ratio", "lower", 0},

	{"runtime.alloc_mb_per_ksample", "MB", "lower", 0},
	{"runtime.gc_pause_ms_total", "ms", "lower", 0},
	{"runtime.gc_cpu_share", "ratio", "lower", 0},
	{"runtime.goroutines_end", "count", "lower", 0},

	{"host.unit_cpu_us", "us", "lower", 0},

	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.spans", "count", "higher", 0},
}

// metricValue is a measured metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick returns the defs' metrics out of vals. A metric the harness did
// not compute would print as 0; the smoke test checks that none is
// missing.
func pick(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}
