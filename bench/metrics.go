package main

// Metric sources of the per-layer ledger. All four sit outside the
// program: the harness times calls, wraps interfaces the config
// accepts, replays public functions, or reads the registry the program
// already keeps.
const (
	srcSpan      = "span"      // harness span around a Service call
	srcDecorator = "decorator" // timing decorator on tuner.Tuner / shard.Shard
	srcProbe     = "probe"     // fixed-count replay of a public function
	srcObs       = "obs"       // obs.Default().Snapshot(), measured-phase delta
	srcCounters  = "counters"  // Service.Counters / Service.Summary delta
	srcRuntime   = "runtime"   // runtime.MemStats delta of the harness process
)

const (
	higher = "higher"
	lower  = "lower"
)

// metricDef declares one metric: BENCHMARK.json, the README tables and
// the printed report all come from these two lists.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: tolerated regression, share of the parent's median
	Source string  // per-layer only
}

// endToEndMetrics are what a user of the fleet service sees. The bounds
// are wider than the issue proposed (10%, 15% for p95, 5% for
// throttles). A bound has to exceed what the metric moves by on
// unchanged code, and on the shared 2-vCPU reference machine two runs of
// the same seed differ by up to 15% in step time and CPU throughput and
// 25% in p95 when the host is busy (4-9% across ten seeds when it is
// quiet; README, "Noise"). The timing metrics therefore carry the widest
// bound the benchmark contract allows. The exact metrics repeat to the
// digit for one seed; their bound covers the 4-5% (throttles) and up to
// 10% (resident set of the busier worker) they move across seeds.
var endToEndMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "inst_windows_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "inst_windows_per_cpu_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "step_ms_p50", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "step_ms_p95", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: lower, Bound: 0.15},
	{Name: "throttles_per_kwindow", Unit: "1/kwindow", Better: lower, Bound: 0.15},
	{Name: "checkpoint_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "restore_ms", Unit: "ms", Better: lower, Bound: 0.25},
}

// perLayerMetrics is the ledger, layer by layer.
var perLayerMetrics = []metricDef{
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: lower, Source: srcSpan},

	{Name: "workload.sample_ns", Unit: "ns", Better: lower, Source: srcProbe},
	{Name: "workload.sample_allocs", Unit: "count", Better: lower, Source: srcProbe},

	{Name: "sqlparse.template_ns_warm", Unit: "ns", Better: lower, Source: srcProbe},
	{Name: "sqlparse.template_ns_fleet", Unit: "ns", Better: lower, Source: srcProbe},
	{Name: "sqlparse.cache_hit_rate", Unit: "ratio", Better: higher, Source: srcObs},
	{Name: "sqlparse.cache_evictions_per_kwindow", Unit: "1/kwindow", Better: lower, Source: srcObs},

	{Name: "simdb.window_us", Unit: "us", Better: lower, Source: srcProbe},
	{Name: "simdb.window_allocs", Unit: "count", Better: lower, Source: srcProbe},
	{Name: "simdb.plan_cache_hit_rate", Unit: "ratio", Better: higher, Source: srcObs},

	{Name: "tde.tick_us", Unit: "us", Better: lower, Source: srcProbe},
	{Name: "tde.ticks", Unit: "count", Better: lower, Source: srcObs},
	{Name: "tde.tick_ms_total", Unit: "ms", Better: lower, Source: srcObs},
	{Name: "tde.tick_share", Unit: "ratio", Better: lower, Source: srcObs},

	{Name: "monitor.append_ns", Unit: "ns", Better: lower, Source: srcProbe},

	{Name: "core.step_ms_total", Unit: "ms", Better: lower, Source: srcSpan},
	{Name: "core.merge_ms_total", Unit: "ms", Better: lower, Source: srcObs},
	{Name: "core.window_phase_ms_total", Unit: "ms", Better: lower, Source: srcObs},
	{Name: "core.merge_share", Unit: "ratio", Better: lower, Source: srcObs},
	{Name: "core.parallel_speedup", Unit: "ratio", Better: higher, Source: srcProbe},

	{Name: "director.tuning_requests", Unit: "count", Better: lower, Source: srcCounters},
	{Name: "director.recommendations", Unit: "count", Better: lower, Source: srcCounters},
	{Name: "director.apply_failures", Unit: "count", Better: lower, Source: srcCounters},
	{Name: "director.round_ms_total", Unit: "ms", Better: lower, Source: srcObs},

	{Name: "tuner.recommend_calls", Unit: "count", Better: lower, Source: srcDecorator},
	{Name: "tuner.recommend_ms_total", Unit: "ms", Better: lower, Source: srcDecorator},
	{Name: "tuner.recommend_ms_p50", Unit: "ms", Better: lower, Source: srcDecorator},
	{Name: "tuner.recommend_ms_p95", Unit: "ms", Better: lower, Source: srcDecorator},
	{Name: "tuner.observe_calls", Unit: "count", Better: lower, Source: srcDecorator},
	{Name: "tuner.observe_ms_total", Unit: "ms", Better: lower, Source: srcDecorator},
	{Name: "tuner.not_trained", Unit: "count", Better: lower, Source: srcDecorator},
	{Name: "tuner.recommend_share", Unit: "ratio", Better: lower, Source: srcDecorator},
	{Name: "tuner.useful_ratio", Unit: "ratio", Better: higher, Source: srcDecorator},

	{Name: "dfa.applies", Unit: "count", Better: lower, Source: srcObs},
	{Name: "dfa.rejections", Unit: "count", Better: lower, Source: srcObs},
	{Name: "dfa.apply_ms_total", Unit: "ms", Better: lower, Source: srcObs},

	{Name: "repository.samples", Unit: "count", Better: lower, Source: srcCounters},
	{Name: "repository.observe_ns", Unit: "ns", Better: lower, Source: srcProbe},
	{Name: "repository.fanout_delivered", Unit: "count", Better: lower, Source: srcObs},
	{Name: "repository.fanout_blocked", Unit: "count", Better: lower, Source: srcObs},

	{Name: "shard.step_calls", Unit: "count", Better: lower, Source: srcDecorator},
	{Name: "shard.step_ms_total", Unit: "ms", Better: lower, Source: srcDecorator},
	{Name: "shard.step_skew", Unit: "ratio", Better: lower, Source: srcDecorator},
	{Name: "shard.max_share", Unit: "ratio", Better: lower, Source: srcDecorator},
	{Name: "shard.coord_wait_ms_total", Unit: "ms", Better: lower, Source: srcDecorator},
	{Name: "shard.rpc_roundtrip_us", Unit: "us", Better: lower, Source: srcProbe},
	{Name: "shard.frame_ns", Unit: "ns", Better: lower, Source: srcProbe},
	{Name: "shard.frame_bytes", Unit: "bytes", Better: lower, Source: srcProbe},
	{Name: "shard.fingerprint_ms", Unit: "ms", Better: lower, Source: srcSpan},

	{Name: "fleet.mutations", Unit: "count", Better: lower, Source: srcSpan},
	{Name: "fleet.mutations_failed", Unit: "count", Better: lower, Source: srcSpan},
	{Name: "fleet.mutate_us_p50", Unit: "us", Better: lower, Source: srcSpan},
	{Name: "fleet.reconcile_us_mean", Unit: "us", Better: lower, Source: srcObs},
	{Name: "fleet.provisions", Unit: "count", Better: lower, Source: srcCounters},
	{Name: "fleet.deprovisions", Unit: "count", Better: lower, Source: srcCounters},
	{Name: "fleet.resizes", Unit: "count", Better: lower, Source: srcCounters},

	{Name: "checkpoint.bytes", Unit: "bytes", Better: lower, Source: srcSpan},
	{Name: "checkpoint.bytes_per_instance", Unit: "bytes", Better: lower, Source: srcSpan},
	{Name: "checkpoint.encode_ms", Unit: "ms", Better: lower, Source: srcSpan},
	{Name: "checkpoint.restore_ms", Unit: "ms", Better: lower, Source: srcSpan},
	{Name: "checkpoint.growth_ratio", Unit: "ratio", Better: lower, Source: srcSpan},

	{Name: "runtime.gc_cycles", Unit: "count", Better: lower, Source: srcRuntime},
	{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: lower, Source: srcRuntime},
	{Name: "runtime.allocs_per_window", Unit: "count", Better: lower, Source: srcRuntime},
	{Name: "runtime.heap_mb_end", Unit: "MiB", Better: lower, Source: srcRuntime},
}

// layerValue is one ledger entry. Absent means the layer's number does
// not exist on this workload (the registry lives in the workers on
// sharded-rpc; there are no shards on the flat workloads) — it is
// reported as absent, never estimated.
type layerValue struct {
	Value  float64 `json:"value"`
	Absent bool    `json:"absent,omitempty"`
}

// endToEnd derives the nine end-to-end metrics from one untraced pass
// and the run's set-up times.
func (r *runResult) endToEnd(setupS float64) map[string]float64 {
	return map[string]float64{
		"setup_s":                setupS,
		"inst_windows_per_s":     ratio(float64(r.InstanceWindows), r.MeasuredWallS),
		"inst_windows_per_cpu_s": ratio(float64(r.InstanceWindows), r.MeasuredCPUS),
		"step_ms_p50":            r.StepMsP50,
		"step_ms_p95":            r.StepMsTail,
		"peak_rss_mb":            r.PeakRSSMB,
		"throttles_per_kwindow":  ratio(1000*float64(r.Throttles), float64(r.InstanceWindows)),
		"checkpoint_ms":          r.CheckpointMs,
		"restore_ms":             r.RestoreMs,
	}
}
