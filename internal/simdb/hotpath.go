package simdb

import "autodbaas/internal/knobs"

// This file holds the engine's hot-path machinery: the flattened knob
// view read once per window instead of per-query map lookups, and the
// selection that replaces the window P99's full sort. The flattened
// view is a pure memoisation — every field is exactly what the map read
// would produce — so it cannot change simulation results, only their
// cost.

// flatKnobs is the per-epoch flattened view of every knob the planner,
// pricing and background-process code read on the per-query/per-window
// hot path. Values are plain map reads of the active config (missing
// knobs read as 0, matching knobs.Config's map-index semantics).
type flatKnobs struct {
	// Working-area grants.
	workMem  float64 // work_mem (pg)
	maintMem float64 // maintenance_work_mem (pg)
	tempBuf  float64 // temp_buffers (pg)
	sortBuf  float64 // sort_buffer_size (mysql)
	joinBuf  float64 // join_buffer_size (mysql)
	keyBuf   float64 // key_buffer_size (mysql)
	tmpTable float64 // tmp_table_size (mysql)

	// Planner estimates.
	randomPageCost    float64
	seqPageCost       float64
	cpuTupleCost      float64
	effectiveCacheSiz float64
	maxParPerGather   float64
	eqRangeDiveLimit  float64 // mysql index-preference proxy

	// Async / parallel execution.
	effectiveIOConc      float64
	maxWorkerProcesses   float64
	innodbThreadConcurr  float64
	innodbMaxDirtyPct    float64
	innodbIOCapacity     float64
	innodbLRUScanDepth   float64
	innodbLogFileSize    float64
	bgwriterDelay        float64
	bgwriterLRUMaxpages  float64
	checkpointTimeout    float64
	maxWALSize           float64
	ckptCompletionTarget float64

	bufferPool float64 // the engine's buffer-pool knob
}

// newFlatKnobs flattens cfg for this engine flavour.
func (e *Engine) newFlatKnobs(cfg knobs.Config) flatKnobs {
	return flatKnobs{
		workMem:  cfg["work_mem"],
		maintMem: cfg["maintenance_work_mem"],
		tempBuf:  cfg["temp_buffers"],
		sortBuf:  cfg["sort_buffer_size"],
		joinBuf:  cfg["join_buffer_size"],
		keyBuf:   cfg["key_buffer_size"],
		tmpTable: cfg["tmp_table_size"],

		randomPageCost:    cfg["random_page_cost"],
		seqPageCost:       cfg["seq_page_cost"],
		cpuTupleCost:      cfg["cpu_tuple_cost"],
		effectiveCacheSiz: cfg["effective_cache_size"],
		maxParPerGather:   cfg["max_parallel_workers_per_gather"],
		eqRangeDiveLimit:  cfg["eq_range_index_dive_limit"],

		effectiveIOConc:      cfg["effective_io_concurrency"],
		maxWorkerProcesses:   cfg["max_worker_processes"],
		innodbThreadConcurr:  cfg["innodb_thread_concurrency"],
		innodbMaxDirtyPct:    cfg["innodb_max_dirty_pages_pct"],
		innodbIOCapacity:     cfg["innodb_io_capacity"],
		innodbLRUScanDepth:   cfg["innodb_lru_scan_depth"],
		innodbLogFileSize:    cfg["innodb_log_file_size"],
		bgwriterDelay:        cfg["bgwriter_delay"],
		bgwriterLRUMaxpages:  cfg["bgwriter_lru_maxpages"],
		checkpointTimeout:    cfg["checkpoint_timeout"],
		maxWALSize:           cfg["max_wal_size"],
		ckptCompletionTarget: cfg["checkpoint_completion_target"],

		bufferPool: cfg[e.kcat.BufferPoolKnob()],
	}
}

// flatLocked returns the flattened view of the active config, rebuilt
// only when the config epoch moved (apply/restart/recovery).
func (e *Engine) flatLocked() *flatKnobs {
	if !e.fkValid || e.fkEpoch != e.cfgEpoch {
		e.fk = e.newFlatKnobs(e.cfg)
		e.fkEpoch = e.cfgEpoch
		e.fkValid = true
	}
	return &e.fk
}

// overlayLocked clones the active config, applies override on top and
// returns both the flattened view and the merged config (the latter for
// the map-based hit-ratio / memory-footprint model). Shared by every
// hypothetical-probe entry point (ExplainWith, HypotheticalRunMs,
// HypotheticalRunTemplatesMs). An empty override is the active config
// itself: the memoised view and e.cfg, which the caller must only read
// and only under e.mu.
func (e *Engine) overlayLocked(override knobs.Config) (flatKnobs, knobs.Config) {
	if len(override) == 0 {
		return *e.flatLocked(), e.cfg
	}
	cfg := e.cfg.Clone()
	for k, v := range override {
		cfg[k] = v
	}
	return e.newFlatKnobs(cfg), cfg
}

// bumpEpochLocked invalidates the flattened knob view. Called whenever
// e.cfg changes.
func (e *Engine) bumpEpochLocked() { e.cfgEpoch++ }

// selectKth rearranges xs so that xs[k] holds the k-th order statistic
// (the value sort.Float64s would leave at index k) and returns it, in
// expected O(n) instead of the O(n log n) full sort the window P99
// previously paid. Deterministic: median-of-three pivoting, no RNG.
func selectKth(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		// Median-of-three pivot, moved to xs[hi].
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[hi]
		i := lo
		for j := lo; j < hi; j++ {
			if xs[j] < pivot {
				xs[i], xs[j] = xs[j], xs[i]
				i++
			}
		}
		xs[i], xs[hi] = xs[hi], xs[i]
		switch {
		case i == k:
			return xs[k]
		case i < k:
			lo = i + 1
		default:
			hi = i - 1
		}
	}
	return xs[k]
}
