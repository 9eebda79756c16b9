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

// newFlatKnobs flattens cfg for this engine flavour: each knob that
// flatField maps lands in its field, and the buffer-pool knob in
// bufferPool.
func (e *Engine) newFlatKnobs(cfg knobs.Config) flatKnobs {
	var fk flatKnobs
	for name, v := range cfg {
		if f := flatField(&fk, name); f != nil {
			*f = v
		}
	}
	fk.bufferPool = cfg[e.kcat.BufferPoolKnob()]
	return fk
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

// flatField returns the field of fk that holds knob name, or nil when
// no field reads that knob. The buffer-pool field is not listed: which
// knob fills it depends on the engine, and that knob sends an overlay
// down the clone path.
func flatField(fk *flatKnobs, name string) *float64 {
	switch name {
	case "work_mem":
		return &fk.workMem
	case "maintenance_work_mem":
		return &fk.maintMem
	case "temp_buffers":
		return &fk.tempBuf
	case "sort_buffer_size":
		return &fk.sortBuf
	case "join_buffer_size":
		return &fk.joinBuf
	case "key_buffer_size":
		return &fk.keyBuf
	case "tmp_table_size":
		return &fk.tmpTable
	case "random_page_cost":
		return &fk.randomPageCost
	case "seq_page_cost":
		return &fk.seqPageCost
	case "cpu_tuple_cost":
		return &fk.cpuTupleCost
	case "effective_cache_size":
		return &fk.effectiveCacheSiz
	case "max_parallel_workers_per_gather":
		return &fk.maxParPerGather
	case "eq_range_index_dive_limit":
		return &fk.eqRangeDiveLimit
	case "effective_io_concurrency":
		return &fk.effectiveIOConc
	case "max_worker_processes":
		return &fk.maxWorkerProcesses
	case "innodb_thread_concurrency":
		return &fk.innodbThreadConcurr
	case "innodb_max_dirty_pages_pct":
		return &fk.innodbMaxDirtyPct
	case "innodb_io_capacity":
		return &fk.innodbIOCapacity
	case "innodb_lru_scan_depth":
		return &fk.innodbLRUScanDepth
	case "innodb_log_file_size":
		return &fk.innodbLogFileSize
	case "bgwriter_delay":
		return &fk.bgwriterDelay
	case "bgwriter_lru_maxpages":
		return &fk.bgwriterLRUMaxpages
	case "checkpoint_timeout":
		return &fk.checkpointTimeout
	case "max_wal_size":
		return &fk.maxWALSize
	case "checkpoint_completion_target":
		return &fk.ckptCompletionTarget
	}
	return nil
}

// overlayLocked returns the flattened view and the cache hit ratio of
// the active config with override applied on top, leaving the active
// config untouched. It backs HypotheticalRunTemplatesMs.
//
// Usually nothing is copied but the view: the memoised one is copied
// and the fields the override names are patched. newFlatKnobs fills
// every field through flatField too, so this equals flattening a
// merged copy of the config, and a knob no field reads changes nothing.
// The hit ratio reads the buffer-pool knob and MemoryFootprint, which
// sums only memory-class knobs; an override naming one of those (the
// canary's full configs do) is merged into a clone of the config
// instead.
func (e *Engine) overlayLocked(override knobs.Config) (flatKnobs, float64) {
	fk := *e.flatLocked()
	for k, v := range override {
		if e.readByHitRatio(k) {
			cfg := e.cfg.Clone()
			for name, val := range override {
				cfg[name] = val
			}
			return e.newFlatKnobs(cfg), e.hitRatioLocked(cfg)
		}
		if f := flatField(&fk, k); f != nil {
			*f = v
		}
	}
	return fk, e.hitRatioLocked(e.cfg)
}

// readByHitRatio reports whether hitRatioLocked reads knob name: the
// buffer-pool knob, or a memory-class knob of this engine's catalogue.
func (e *Engine) readByHitRatio(name string) bool {
	if name == e.kcat.BufferPoolKnob() {
		return true
	}
	d := e.kcat.Def(name)
	return d != nil && d.Class == knobs.Memory
}

// bumpEpochLocked invalidates the memos of the active config: the
// flattened knob view and the config vector. Called whenever e.cfg
// changes.
func (e *Engine) bumpEpochLocked() {
	e.cfgEpoch++
	e.cfgVec = knobs.Vector{}
}

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
