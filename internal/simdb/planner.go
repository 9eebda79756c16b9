package simdb

import (
	"fmt"
	"math"
	"strings"

	"autodbaas/internal/knobs"
	"autodbaas/internal/sqlparse"
	"autodbaas/internal/workload"
)

// ScanType is the access path the planner picks.
type ScanType int

// Scan types.
const (
	SeqScan ScanType = iota
	IndexScan
)

// String implements fmt.Stringer.
func (s ScanType) String() string {
	if s == IndexScan {
		return "index scan"
	}
	return "seq scan"
}

// Plan is the simulator's EXPLAIN output: everything the TDE's memory
// detector needs to decide whether a template's execution would touch
// disk, plus the planner's own cost estimate for the MDP probe.
type Plan struct {
	Scan            ScanType
	ParallelWorkers int     // workers the plan wants (0 = serial)
	EstimatedCost   float64 // planner cost units (knob-dependent)
	MemRequired     float64 // bytes of working memory the plan needs
	MemGranted      float64 // bytes the relevant knob grants
	MaintRequired   float64 // bytes of maintenance memory needed
	MaintGranted    float64
	TempRequired    float64 // bytes of temp-table space needed
	TempGranted     float64
	// UsesDisk reports whether execution will spill any working area to
	// disk — the memory-throttle signal of §3.1.
	UsesDisk bool
}

// grants returns the working-area grants of fk for this engine flavour
// to a statement of class cls.
func (e *Engine) grants(fk *flatKnobs, cls sqlparse.Class) (work, maint, temp float64) {
	if e.engineName == string(knobs.MySQL) {
		switch cls {
		case sqlparse.ClassJoin:
			work = fk.joinBuf
		default:
			work = fk.sortBuf
		}
		return work, fk.keyBuf, fk.tmpTable
	}
	return fk.workMem, fk.maintMem, fk.tempBuf
}

// selectivity estimates the fraction of pages an index path would touch
// for a statement of class cls and profile p.
func selectivity(cls sqlparse.Class, p *workload.Profile) float64 {
	if !p.IndexFriendly {
		return 1
	}
	switch cls {
	case sqlparse.ClassSimpleSelect, sqlparse.ClassInsert, sqlparse.ClassUpdate, sqlparse.ClassDelete:
		return 0.02
	default:
		return 0.12
	}
}

// planWith computes the plan for a statement of class cls and profile
// prof under the flattened knob view without touching state. It is a
// pure function of (fk, resources, dbSize, cls, *prof); prof is read in
// place, never copied.
func (e *Engine) planWith(fk *flatKnobs, cls sqlparse.Class, prof *workload.Profile) Plan {
	work, maint, temp := e.grants(fk, cls)
	p := Plan{
		MemRequired:   prof.MemDemand,
		MemGranted:    work,
		MaintRequired: prof.MaintMem,
		MaintGranted:  maint,
		TempRequired:  prof.TempBytes,
		TempGranted:   temp,
	}
	p.UsesDisk = prof.MemDemand > work ||
		prof.MaintMem > maint ||
		prof.TempBytes > temp

	pages := math.Max(1, prof.ReadBytes/PageSize)
	sel := selectivity(cls, prof)

	if e.engineName == string(knobs.MySQL) {
		// MySQL 5.6 has no parallel query; planner choice reduces to
		// index-vs-scan driven by optimizer knobs (approximated via
		// eq_range_index_dive_limit as an index-preference proxy).
		dive := fk.eqRangeDiveLimit
		indexCost := sel * pages * 1.4 * (1 + 10/math.Max(1, dive))
		seqCost := pages
		if prof.IndexFriendly && indexCost < seqCost {
			p.Scan = IndexScan
			p.EstimatedCost = indexCost
		} else {
			p.Scan = SeqScan
			p.EstimatedCost = seqCost
		}
		return p
	}

	rpc := fk.randomPageCost
	spc := fk.seqPageCost
	ctc := fk.cpuTupleCost
	ecs := fk.effectiveCacheSiz
	// A larger assumed cache makes random access cheaper in the
	// planner's eyes (PostgreSQL discounts random_page_cost when it
	// believes pages are cached).
	cacheDiscount := math.Min(1, math.Max(0.25, e.dbSize/math.Max(1, 4*ecs)))
	tuples := math.Max(1, prof.ReadBytes/256)
	indexCost := sel*pages*rpc*cacheDiscount + tuples*sel*ctc
	seqCost := pages*spc + tuples*ctc
	if prof.IndexFriendly && indexCost < seqCost {
		p.Scan = IndexScan
		p.EstimatedCost = indexCost
	} else {
		p.Scan = SeqScan
		p.EstimatedCost = seqCost
	}
	// Parallel plan: only for parallelizable queries whose serial cost
	// clears the threshold; the planner requests workers proportional
	// to the scan size, capped by the per-gather knob.
	maxPar := fk.maxParPerGather
	if prof.Parallelizable && maxPar >= 1 && p.EstimatedCost > 5000 {
		want := int(math.Min(maxPar, math.Max(1, math.Log2(pages/1000))))
		if want > 0 {
			p.ParallelWorkers = want
			p.EstimatedCost = p.EstimatedCost/float64(want+1) + 500*float64(want)
		}
	}
	return p
}

// ioOverlapFactor models asynchronous-IO overlap: deeper prefetch hides
// miss latency up to the device's parallelism, then costs coordination.
func (e *Engine) ioOverlapFactor(fk *flatKnobs) float64 {
	devPar := 1.0
	if e.res.DiskSSD {
		devPar = 8.0
	}
	var depth float64
	if e.engineName == string(knobs.MySQL) {
		// innodb_thread_concurrency: 0 = unlimited (treated as device
		// parallelism); otherwise optimal near the device parallelism.
		c := fk.innodbThreadConcurr
		if c == 0 {
			depth = devPar
		} else {
			depth = c
		}
	} else {
		depth = fk.effectiveIOConc
	}
	// Overlap grows to the device parallelism, then oversubscription
	// decays it smoothly (queueing/coordination overhead) — the gradient
	// stays nonzero everywhere so cost/benefit probes can sense the
	// direction even from deeply mis-set values.
	peak := 1 + 0.5*math.Min(depth, devPar)
	f := peak / (1 + 0.004*math.Max(0, depth-devPar))
	if f < 0.6 {
		f = 0.6
	}
	return f
}

// trueScanFactor is the hardware truth the planner's estimates may or
// may not match: the real relative cost of random vs sequential access.
func (e *Engine) trueScanFactor() float64 {
	if e.res.DiskSSD {
		return 1.3
	}
	return 5.0
}

// serviceTimeMs prices the execution of a statement of class cls and
// profile prof given the current cache hit ratio and its plan (from
// planWith), reading prof and plan in place.
// It is the single source of truth for both live execution (RunWindow)
// and hypothetical probes (HypotheticalRunTemplatesMs).
func (e *Engine) serviceTimeMs(fk *flatKnobs, cls sqlparse.Class, prof *workload.Profile, hitRatio float64, plan *Plan) (ms float64, spillBytes float64) {
	readBytes := clampNonNeg(prof.ReadBytes)
	if plan.Scan == IndexScan {
		// Index path reads less data but with random access.
		readBytes = readBytes * selectivity(cls, prof) * e.trueScanFactor()
		if !e.res.DiskSSD {
			// On spinning disks random access hurts more than the
			// volume discount helps for mid-selectivity scans.
			readBytes *= 1.2
		}
	}
	// CPU: processing scales with logical data volume; parallel workers
	// split it (with coordination overhead).
	par := 1.0
	if plan.ParallelWorkers > 0 {
		par = float64(plan.ParallelWorkers+1) * 0.85
	}
	// Fixed per-query overhead (parse, plan, protocol, locking) plus
	// data-volume processing split across parallel workers.
	cpuMs := 0.3 + readBytes/(512*1024*1024)*1000/par

	// IO: buffer misses go to the data disk. Prefetch depth
	// (effective_io_concurrency / thread concurrency) overlaps misses up
	// to the device's internal parallelism; oversubscribing it adds
	// queueing overhead — an interior optimum the MDP probe can find.
	missBytes := readBytes * (1 - hitRatio)
	missPages := missBytes / PageSize
	ioMs := missPages / math.Max(1, e.res.DiskIOPS) * 1000 / e.ioOverlapFactor(fk)

	// Spills: working areas that do not fit are written out and read back.
	if plan.UsesDisk {
		spillBytes = 0
		if plan.MemRequired > plan.MemGranted {
			spillBytes += plan.MemRequired - plan.MemGranted
		}
		if plan.MaintRequired > plan.MaintGranted {
			spillBytes += plan.MaintRequired - plan.MaintGranted
		}
		if plan.TempRequired > plan.TempGranted {
			spillBytes += plan.TempRequired - plan.TempGranted
		}
		spillPages := 2 * spillBytes / PageSize // write + read back
		ioMs += spillPages / math.Max(1, e.res.DiskIOPS) * 1000
		// External algorithms are also CPU-costlier (merge passes).
		cpuMs *= 1.3
	}

	writePages := clampNonNeg(prof.WriteBytes) / PageSize
	ioMs += writePages / math.Max(1, e.res.DiskIOPS) * 200 // mostly buffered

	return cpuMs + ioMs, spillBytes
}

// hitRatioLocked models the buffer-pool hit ratio for cfg against the
// current working-set estimate. The pool is complemented by the OS page
// cache built from leftover instance memory.
func (e *Engine) hitRatioLocked(cfg knobs.Config) float64 {
	pool := cfg[e.kcat.BufferPoolKnob()]
	budget := e.memoryBudget()
	footprint := e.kcat.MemoryFootprint(cfg, budget)
	// Leftover instance memory acts as OS page cache, but with heavy
	// double-caching discount: it is far less effective per byte than
	// the engine's own buffer pool.
	osCache := 0.15 * math.Max(0, e.res.MemoryBytes-footprint)
	eff := pool + osCache
	ws := math.Max(1, e.workingSet)
	h := 0.995 * math.Min(1, eff/ws)
	if h < 0.05 {
		h = 0.05
	}
	return h
}

// HitRatio returns the current modelled cache hit ratio.
func (e *Engine) HitRatio() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.hitRatioLocked(e.cfg)
}

// Format renders the plan EXPLAIN-style, the human surface DBAs (and
// the quickstart example) read when inspecting what the TDE saw.
func (p Plan) Format() string {
	var b strings.Builder
	par := ""
	if p.ParallelWorkers > 0 {
		par = fmt.Sprintf("  Workers Planned: %d\n", p.ParallelWorkers)
	}
	fmt.Fprintf(&b, "%s  (cost=%.2f)\n%s", titleCase(p.Scan.String()), p.EstimatedCost, par)
	line := func(label string, req, granted float64) {
		if req <= 0 {
			return
		}
		state := "Memory"
		if req > granted {
			state = "Disk"
		}
		fmt.Fprintf(&b, "  %s: %.1fMB required, %.1fMB granted  (%s)\n",
			label, req/(1<<20), granted/(1<<20), state)
	}
	line("Work Area", p.MemRequired, p.MemGranted)
	line("Maintenance Area", p.MaintRequired, p.MaintGranted)
	line("Temp Area", p.TempRequired, p.TempGranted)
	return b.String()
}

func titleCase(s string) string {
	out := []byte(s)
	up := true
	for i, c := range out {
		if up && c >= 'a' && c <= 'z' {
			out[i] = c - 'a' + 'A'
		}
		up = c == ' '
	}
	return string(out)
}
