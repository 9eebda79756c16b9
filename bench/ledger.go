package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"autodbaas/internal/fleet"
	"autodbaas/internal/obs"
	"autodbaas/internal/shard"
)

// obsView is the program's own registry, flattened: counters and gauges
// by value, histograms by sum and count, keyed by family then labels.
type obsView map[string]obsPoint

type obsPoint struct {
	name   string
	labels map[string]string
	value  float64 // counter/gauge value, or histogram sum
	count  float64 // histogram observation count
}

func readObs() obsView {
	out := make(obsView)
	for _, m := range obs.Default().Snapshot() {
		keys := make([]string, 0, len(m.Labels))
		for k, v := range m.Labels {
			keys = append(keys, k+"="+v)
		}
		sort.Strings(keys)
		pt := obsPoint{name: m.Name, labels: m.Labels, value: m.Value}
		if m.Kind == "histogram" {
			pt.value, pt.count = m.Sum, float64(m.Count)
		}
		out[m.Name+"{"+strings.Join(keys, ",")+"}"] = pt
	}
	return out
}

// since subtracts an earlier view: what the registry accumulated over
// the measured windows alone.
func (v obsView) since(start obsView) obsView {
	out := make(obsView, len(v))
	for k, pt := range v {
		s := start[k]
		pt.value -= s.value
		pt.count -= s.count
		out[k] = pt
	}
	return out
}

// total sums a family's value and count over every label set matching
// the label=value filters.
func (v obsView) total(name string, filters ...string) (value, count float64) {
	for _, pt := range v {
		if pt.name != name {
			continue
		}
		ok := true
		for i := 0; i+1 < len(filters); i += 2 {
			if pt.labels[filters[i]] != filters[i+1] {
				ok = false
			}
		}
		if ok {
			value += pt.value
			count += pt.count
		}
	}
	return value, count
}

func (v obsView) value(name string, filters ...string) float64 {
	x, _ := v.total(name, filters...)
	return x
}

// hitRate is hits/(hits+misses) of one named cache.
func (v obsView) hitRate(cache string) float64 {
	h := v.value("autodbaas_cache_hits_total", "cache", cache)
	m := v.value("autodbaas_cache_misses_total", "cache", cache)
	return ratio(h, h+m)
}

// ledgerInputs collects what the traced pass needs beyond its spans:
// registry, runtime and counter snapshots at both ends of the measured
// windows.
type ledgerInputs struct {
	h       *harness
	sharded bool

	obs0, obs1         obsView
	mem0, mem1         runtime.MemStats
	counters0          shard.Counters
	counters1          shard.Counters
	summary0, summary1 fleet.Summary
	notTrained0        int
	notTrained1        int
	shardSizes         map[string]int
	rpcRoundtripUs     float64
}

// beginLedger starts the ledger of a traced pass. An untraced pass gets
// nil, on which every method is a no-op, like the recorder.
func beginLedger(h *harness, e *env) *ledgerInputs {
	if h.rec == nil {
		return nil
	}
	l := &ledgerInputs{h: h, sharded: e.workers != nil}
	l.obs0 = readObs()
	l.counters0, _ = e.svc.Counters() // a failing shard fails the next Step too
	l.summary0 = e.svc.Summary()
	if e.tuner != nil {
		l.notTrained0 = e.tuner.notTrainedCount()
	}
	runtime.ReadMemStats(&l.mem0)
	return l
}

func (l *ledgerInputs) endMeasured(e *env) {
	if l == nil {
		return
	}
	runtime.ReadMemStats(&l.mem1)
	l.obs1 = readObs()
	l.counters1, _ = e.svc.Counters()
	l.summary1 = e.svc.Summary()
	if e.tuner != nil {
		l.notTrained1 = e.tuner.notTrainedCount()
	}
	if coord := e.svc.Coordinator(); coord != nil {
		l.shardSizes = make(map[string]int)
		for _, name := range coord.ShardNames() {
			if sh, ok := coord.Shard(name); ok {
				if members, err := sh.Members(); err == nil {
					l.shardSizes[name] = len(members)
				}
			}
		}
	}
}

// probeLive runs the probe that needs a live worker: the bare RPC
// round trip, a Counters call with nothing to compute behind it.
func (l *ledgerInputs) probeLive(e *env) error {
	if l == nil || len(e.remotes) == 0 {
		return nil
	}
	n := 2000
	if l.h.cfg.Sizing.Quick {
		n = 100
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := e.remotes[0].Counters(); err != nil {
			return err
		}
	}
	l.rpcRoundtripUs = float64(time.Since(start).Microseconds()) / float64(n)
	return nil
}

// finish turns spans, snapshots and probes into the ledger and writes
// the trace file.
func (l *ledgerInputs) finish() error {
	if l == nil {
		return nil
	}
	h := l.h
	spans := h.rec.snapshot()
	led := make(map[string]layerValue)
	set := func(name string, v float64) { led[name] = layerValue{Value: v} }

	l.fromSpans(spans, set)
	l.fromCounters(set)
	if !l.sharded {
		// The registry of a sharded run lives in the worker processes.
		l.fromObs(set, led["core.step_ms_total"].Value)
	}
	l.fromRuntime(set)
	if err := runProbes(h.plan, h.cfg.Sizing, l.sharded, set); err != nil {
		return err
	}
	if l.sharded {
		set("shard.rpc_roundtrip_us", l.rpcRoundtripUs)
	}
	for _, d := range perLayerMetrics {
		if _, ok := led[d.Name]; !ok {
			led[d.Name] = layerValue{Absent: true}
		}
	}
	h.res.Layer = led
	h.res.Spans = len(spans)
	h.res.RecorderCostPct = 100 * ratio(float64(len(spans))*spanCostNs(), h.res.MeasuredWallS*1e9)
	return writeJSON(filepath.Join(h.cfg.OutDir, "trace-"+h.plan.Workload+".json"), spans)
}

// spanCostNs calibrates what recording one span costs.
func spanCostNs() float64 {
	r := newRecorder()
	ns, _ := timed(100_000, func() { r.end(r.begin("calibrate")) })
	return ns
}

func (l *ledgerInputs) fromSpans(spans []span, set func(string, float64)) {
	h := l.h
	var stepTotal float64
	var recommendMs, observeMs, mutateUs []float64
	shardBusy := make(map[string]float64)
	shardCalls := 0
	var stepIDs []int
	for _, s := range spans {
		if s.Window < 0 {
			continue
		}
		ms := float64(s.dur()) / 1e6
		switch {
		case s.Name == spanStep:
			stepTotal += ms
			stepIDs = append(stepIDs, s.ID)
		case s.Name == spanRecommend:
			recommendMs = append(recommendMs, ms)
		case s.Name == spanObserve:
			observeMs = append(observeMs, ms)
		case s.Name == spanCreate || s.Name == spanDelete || s.Name == spanResize:
			mutateUs = append(mutateUs, ms*1e3)
		case strings.HasPrefix(s.Name, spanShardStep):
			shardCalls++
			shardBusy[strings.TrimPrefix(s.Name, spanShardStep)] += ms
		}
	}
	set("core.step_ms_total", stepTotal)

	set("fleet.mutations", float64(len(mutateUs)))
	set("fleet.mutations_failed", float64(h.mutationsFailed))
	if v, err := percentile(mutateUs, 50); err == nil {
		set("fleet.mutate_us_p50", v)
	}

	if !l.sharded {
		set("tuner.recommend_calls", float64(len(recommendMs)))
		set("tuner.recommend_ms_total", sum(recommendMs))
		if v, err := percentile(recommendMs, 50); err == nil {
			set("tuner.recommend_ms_p50", v)
		}
		if v, err := percentile(recommendMs, 95); err == nil {
			set("tuner.recommend_ms_p95", v)
		}
		set("tuner.observe_calls", float64(len(observeMs)))
		set("tuner.observe_ms_total", sum(observeMs))
		set("tuner.not_trained", float64(l.notTrained1-l.notTrained0))
		set("tuner.recommend_share", ratio(sum(recommendMs), stepTotal))
		applied := (l.counters1.Recommendations - l.counters0.Recommendations) -
			(l.counters1.ApplyFailures - l.counters0.ApplyFailures)
		if len(recommendMs) > 0 {
			set("tuner.useful_ratio", float64(applied)/float64(len(recommendMs)))
		}
	}

	if l.sharded {
		var busiest, totalBusy float64
		for _, b := range shardBusy {
			busiest = max(busiest, b)
			totalBusy += b
		}
		set("shard.step_calls", float64(shardCalls))
		set("shard.step_ms_total", totalBusy)
		set("shard.step_skew", ratio(busiest, totalBusy/float64(max(1, len(shardBusy)))))
		// The service step's self time: the part of it no shard's step
		// covers, i.e. fan-out, barrier and merge in the coordinator.
		self := selfTimes(spans)
		var wait int64
		for _, id := range stepIDs {
			wait += self[id]
		}
		set("shard.coord_wait_ms_total", float64(wait)/1e6)
		largest, total := 0, 0
		for _, n := range l.shardSizes {
			largest, total = max(largest, n), total+n
		}
		set("shard.max_share", ratio(float64(largest), float64(total)))
		for _, s := range spans {
			if s.Name == spanFingerprint {
				set("shard.fingerprint_ms", float64(s.dur())/1e6)
				break
			}
		}
	}

	res := h.res
	set("checkpoint.bytes", float64(res.CheckpointBytes))
	set("checkpoint.bytes_per_instance", ratio(float64(res.CheckpointBytes), float64(l.summary1.Instances)))
	set("checkpoint.encode_ms", res.CheckpointMs)
	set("checkpoint.restore_ms", res.RestoreMs)
	if len(h.inRunBytes) >= 2 && h.inRunBytes[0] > 0 {
		set("checkpoint.growth_ratio", float64(h.inRunBytes[1])/float64(h.inRunBytes[0]))
	}
}

func (l *ledgerInputs) fromCounters(set func(string, float64)) {
	c0, c1 := l.counters0, l.counters1
	set("director.tuning_requests", float64(c1.TuningRequests-c0.TuningRequests))
	set("director.recommendations", float64(c1.Recommendations-c0.Recommendations))
	set("director.apply_failures", float64(c1.ApplyFailures-c0.ApplyFailures))
	set("repository.samples", float64(c1.Samples-c0.Samples))
	set("fleet.provisions", float64(l.summary1.Provisions-l.summary0.Provisions))
	set("fleet.deprovisions", float64(l.summary1.Deprovisions-l.summary0.Deprovisions))
	set("fleet.resizes", float64(l.summary1.Resizes-l.summary0.Resizes))
}

func (l *ledgerInputs) fromObs(set func(string, float64), stepMsTotal float64) {
	d := l.obs1.since(l.obs0)
	kwindows := float64(l.h.res.InstanceWindows) / 1000

	set("sqlparse.cache_hit_rate", d.hitRate("sqlparse_template"))
	set("sqlparse.cache_evictions_per_kwindow", ratio(d.value("autodbaas_cache_evictions_total", "cache", "sqlparse_template"), kwindows))
	set("simdb.plan_cache_hit_rate", d.hitRate("simdb_plan"))

	tickS, _ := d.total("autodbaas_agent_tde_run_seconds")
	set("tde.ticks", d.value("autodbaas_agent_tde_ticks_total"))
	set("tde.tick_ms_total", tickS*1e3)
	set("tde.tick_share", ratio(tickS*1e3, stepMsTotal))

	stepS, _ := d.total("autodbaas_core_step_seconds")
	mergeS, _ := d.total("autodbaas_core_step_merge_seconds")
	set("core.merge_ms_total", mergeS*1e3)
	set("core.window_phase_ms_total", (stepS-mergeS)*1e3)
	set("core.merge_share", ratio(mergeS, stepS))

	set("director.round_ms_total", d.value("autodbaas_director_tuning_round_seconds")*1e3)
	set("dfa.applies", d.value("autodbaas_dfa_applies_total"))
	set("dfa.rejections", d.value("autodbaas_dfa_rejections_total"))
	set("dfa.apply_ms_total", d.value("autodbaas_dfa_apply_seconds")*1e3)
	set("repository.fanout_delivered", d.value("autodbaas_repository_fanout_delivered_total"))
	set("repository.fanout_blocked", d.value("autodbaas_repository_fanout_blocked_total"))

	// Histogram sum over count: the mean reconcile pass, never a
	// difference of two wall-clock means.
	recS, recN := d.total("autodbaas_fleet_reconcile_seconds")
	set("fleet.reconcile_us_mean", ratio(recS*1e6, recN))
}

func (l *ledgerInputs) fromRuntime(set func(string, float64)) {
	set("runtime.gc_cycles", float64(l.mem1.NumGC-l.mem0.NumGC))
	set("runtime.gc_pause_ms_total", float64(l.mem1.PauseTotalNs-l.mem0.PauseTotalNs)/1e6)
	set("runtime.allocs_per_window", ratio(float64(l.mem1.Mallocs-l.mem0.Mallocs), float64(l.h.res.InstanceWindows)))
	set("runtime.heap_mb_end", float64(l.mem1.HeapAlloc)/(1<<20))
}

func writeJSON(path string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
