package simdb

import (
	"math"
	"sync"
	"time"

	"autodbaas/internal/knobs"
	"autodbaas/internal/sqlparse"
	"autodbaas/internal/workload"
)

// WindowStats summarizes one observation window.
type WindowStats struct {
	Start    time.Time
	Duration time.Duration
	// Offered and Achieved are queries/second.
	Offered  float64
	Achieved float64
	// AvgServiceMs and P99Ms describe per-query latency.
	AvgServiceMs float64
	P99Ms        float64
	// DiskLatencyMs and IOPS describe the data disk during the window;
	// DiskWriteLatencyMs isolates write-side pressure (checkpointer,
	// background writer, WAL), the paper's "disk-write latency".
	DiskLatencyMs      float64
	DiskWriteLatencyMs float64
	IOPS               float64
	// SpillBytes is the (scaled) volume spilled to disk by working areas.
	SpillBytes float64
	// SpillQueries is the (scaled) number of spilling queries.
	SpillQueries float64
	// Checkpoints fired during the window (timed + requested).
	CheckpointsTimed int
	CheckpointsReq   int
	// CheckpointWriteBytes is the volume scheduled for writeback by
	// checkpoints fired in this window.
	CheckpointWriteBytes float64
	// HitRatio is the modelled cache hit ratio used for the window.
	HitRatio float64
}

// windowSampleCap bounds how many representative queries are priced per
// window; aggregate effects are scaled to the full offered volume.
const windowSampleCap = 192

// windowScratch is RunWindow's working memory: the drawn statements and
// their service times, about 30 KB. It lives for one window, not for
// one engine. A window takes one from scratchFree and returns it, so a
// process holds one per window in flight, however many engines it
// hosts. Reuse is exact: SampleInto overwrites every field of a slot,
// and times[i] is written before it is read.
type windowScratch struct {
	sample [windowSampleCap]workload.Query
	times  [windowSampleCap]float64
}

// scratchFree is the free list of window scratch. It is not a
// sync.Pool: a pool may drop its items at any GC (and at random under
// the race detector), and each drop costs a window a fresh 30 KB.
var scratchFree struct {
	mu   sync.Mutex
	list []*windowScratch
}

func getWindowScratch() *windowScratch {
	scratchFree.mu.Lock()
	defer scratchFree.mu.Unlock()
	n := len(scratchFree.list)
	if n == 0 {
		return new(windowScratch)
	}
	ws := scratchFree.list[n-1]
	scratchFree.list[n-1] = nil
	scratchFree.list = scratchFree.list[:n-1]
	return ws
}

func putWindowScratch(ws *windowScratch) {
	scratchFree.mu.Lock()
	scratchFree.list = append(scratchFree.list, ws)
	scratchFree.mu.Unlock()
}

// RunWindow advances the engine by dur, executing the offered load of
// gen. It prices a representative sample of queries, scales the effects
// to the full volume, steps the background writers/checkpointer, and
// returns the window summary.
func (e *Engine) RunWindow(gen workload.Generator, dur time.Duration) (WindowStats, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	diskFactor := 1.0
	if e.hooks != nil && e.hooks.WindowStart != nil {
		wf := e.hooks.WindowStart()
		switch {
		case wf.Crash && !e.down:
			e.down = true
		case wf.Recover && e.down:
			e.recoverLocked()
		}
		if wf.DiskFactor > 1 {
			diskFactor = wf.DiskFactor
		}
	}
	if e.down {
		// Time still passes while the process is down.
		e.now = e.now.Add(dur)
		return WindowStats{Start: e.now.Add(-dur), Duration: dur}, ErrDown
	}
	start := e.now
	seconds := dur.Seconds()
	offered := gen.RequestRate(start)
	total := offered * seconds
	st := WindowStats{Start: start, Duration: dur, Offered: offered}

	n := int(min(windowSampleCap, max(1, total)))
	ws := getWindowScratch()
	defer putWindowScratch(ws)
	sample := ws.sample[:n]
	for i := range sample {
		gen.SampleInto(e.rng, &sample[i])
	}
	scale := total / float64(n)

	fk := e.flatLocked()
	hit := e.hitRatioLocked(e.cfg)
	st.HitRatio = hit

	jitter := 1.0
	if e.now.Before(e.jitterUntil) {
		jitter = e.jitterFactor
	}

	times := ws.times[:n]
	var sumMs, readLogical, readMiss, writeBytes, spillBytes float64
	var spillCount int
	var parLaunched, parDenied float64
	var classCounts [sqlparse.NumClasses]float64
	workerPool := fk.maxWorkerProcesses // postgres only; 0 for mysql
	overlap := e.ioOverlapFactor(fk)
	slowdown := jitter * e.surgeSlowdownLocked()

	// The sample is drawn and read in place, and each plan is filled in
	// place: a Query is about 150 bytes and a Plan 80, too large to copy
	// per statement.
	var plan Plan
	for i := range sample {
		q := &sample[i]
		e.planWith(fk, q.Class, &q.Profile, &plan)
		ms, spill := e.serviceTimeMs(q.Class, &q.Profile, hit, overlap, &plan)
		ms *= slowdown
		times[i] = ms
		sumMs += ms
		readLogical += q.Profile.ReadBytes
		eff := q.Profile.ReadBytes
		if plan.Scan == IndexScan {
			eff *= selectivity(q.Class, &q.Profile)
		}
		readMiss += eff * (1 - hit)
		writeBytes += q.Profile.WriteBytes
		if spill > 0 {
			spillBytes += spill
			spillCount++
		}
		if plan.ParallelWorkers > 0 {
			if workerPool >= float64(plan.ParallelWorkers) {
				parLaunched += float64(plan.ParallelWorkers)
			} else {
				parDenied += float64(plan.ParallelWorkers)
			}
		}
		classCounts[q.Class] += scale
		if e.replica {
			continue
		}
		tpl := q.Template
		if tpl.ID == "" {
			// A hand-built query without a carried template.
			tpl = sqlparse.TemplateOf(q.Text())
		}
		e.queryLog.add(LogEntry{TemplateID: tpl.ID, Class: tpl.Class})
		e.rememberProfileLocked(tpl.ID, q.Class, &q.Profile)
	}
	avgMs := sumMs / float64(n)
	st.AvgServiceMs = avgMs
	// The k-th order statistic is the same value whether obtained by a
	// full sort or by selection; selection is O(n).
	st.P99Ms = selectKth(times, int(min(float64(n-1), math.Ceil(0.99*float64(n)))))

	// Capacity model (Little's law-ish): VCPU serving queries serially.
	capacityQPS := float64(e.res.VCPU) / (avgMs / 1000) * 0.9
	achieved := math.Min(offered, capacityQPS)
	st.Achieved = achieved
	achievedScale := scale * achieved / math.Max(1e-9, offered)

	// Scale aggregates to the achieved volume.
	st.SpillBytes = spillBytes * achievedScale
	st.SpillQueries = float64(spillCount) * achievedScale
	e.bump("spill_files", float64(spillCount)*achievedScale)
	e.bump("spill_bytes", spillBytes*achievedScale)
	e.bump("plan_spills", float64(spillCount)*achievedScale)
	e.bump("pages_logical", readLogical/PageSize*achievedScale)
	e.bump("pages_read", readMiss/PageSize*achievedScale)
	e.bump("disk_read", readMiss*achievedScale)
	e.bump("par_launched", parLaunched*achievedScale)
	e.bump("par_denied", parDenied*achievedScale)
	e.bump("commit", achieved*seconds)
	for cls, c := range classCounts {
		if c == 0 {
			continue
		}
		cc := c * achieved / math.Max(1e-9, offered)
		switch sqlparse.Class(cls) {
		case sqlparse.ClassInsert:
			e.bump("tup_insert", cc)
		case sqlparse.ClassUpdate:
			e.bump("tup_update", cc)
		case sqlparse.ClassDelete:
			e.bump("tup_delete", cc)
		default:
			e.bump("tup_read", cc)
		}
	}

	// Write path: rows → WAL and dirty pages. Dirty volume is already
	// coalesced: pages redirtied before writeback are written once.
	w := writeBytes * achievedScale
	wal := w * 1.1
	e.bump("wal_bytes", wal)
	e.walSinceCkpt += wal
	e.dirtyBytes = math.Min(fk.bufferPool, e.dirtyBytes+w*1.4*0.5)

	// Working-set estimate (gauging): hot data is a skewed subset of the
	// database, bounded by the unique volume touched per minute so the
	// estimate is independent of the observation-window length.
	perMinuteTouched := readLogical * scale * 0.25 * (60 / seconds)
	wsTarget := math.Min(e.dbSize*0.3, perMinuteTouched*1.5)
	e.workingSet = 0.7*e.workingSet + 0.3*math.Max(64*1024*1024, wsTarget)

	// Background processes.
	bg := e.stepBackgroundLocked(fk, dur, &st)

	// Data-disk accounting for the window.
	readPages := readMiss * achievedScale / PageSize
	spillPages := 2 * st.SpillBytes / PageSize
	backendPages := readPages + spillPages
	walPages := wal / PageSize
	housekeepingPages := 64.0 * seconds / 60 // stats/log writers
	dataPages := backendPages + bg.pages
	if !e.res.SplitDisks {
		dataPages += walPages + housekeepingPages
	}
	e.bump("backend_pages", spillPages)
	e.bump("disk_write", (spillPages+bg.pages)*PageSize+wal)

	base := 6.0
	if e.res.DiskSSD {
		base = 0.5
	}
	latOf := func(pages float64) float64 {
		util := pages / seconds / e.res.DiskIOPS
		l := base * (1 + 2.5*math.Pow(util, 3))
		if util > 0.85 {
			l *= 1 + (util-0.85)*12
		}
		return l
	}
	// Overall device latency (reads + writes) and the write-side-only
	// latency (checkpointer/bgwriter/WAL pressure), the paper's
	// "disk-write latency". Smooth both as a monitoring agent would.
	writePages := dataPages - readPages
	e.diskLatency = 0.4*e.diskLatency + 0.6*latOf(dataPages)*diskFactor
	e.diskWriteLatency = 0.4*e.diskWriteLatency + 0.6*latOf(writePages)*diskFactor
	e.iops = dataPages / seconds
	st.DiskLatencyMs = e.diskLatency
	st.DiskWriteLatencyMs = e.diskWriteLatency
	st.IOPS = e.iops

	// Connection gauge via Little's law.
	e.activeConns = math.Max(1, achieved*avgMs/1000)

	e.lastQPS = achieved
	e.lastP99 = st.P99Ms
	e.now = e.now.Add(dur)
	return st, nil
}

// surgeSlowdownLocked is the service-time multiplier while a checkpoint
// IO surge is in progress.
func (e *Engine) surgeSlowdownLocked() float64 {
	if e.ckptSurgeLeft <= 0 {
		return 1
	}
	surgeUtil := e.ckptSurgeRate / PageSize / e.res.DiskIOPS
	return 1 + math.Min(2.5, surgeUtil*1.5)
}

type bgResult struct {
	pages float64 // data-disk pages written by background processes
}

// stepBackgroundLocked advances the background writer, checkpointer and
// vacuum by dur.
func (e *Engine) stepBackgroundLocked(fk *flatKnobs, dur time.Duration, st *WindowStats) bgResult {
	seconds := dur.Seconds()
	var out bgResult

	// --- Background writer ---
	var bgPages float64
	if e.engineName == string(knobs.MySQL) {
		// InnoDB adaptive flushing: io_capacity budget, throttled when
		// the dirty percentage is below the aggressive threshold.
		dirtyPct := 100 * e.dirtyBytes / math.Max(1, fk.bufferPool)
		aggressive := fk.innodbMaxDirtyPct
		fraction := 0.3
		if dirtyPct >= aggressive {
			fraction = 1.0
		}
		budget := fk.innodbIOCapacity * seconds * fraction
		scan := fk.innodbLRUScanDepth * seconds
		bgPages = math.Min(e.dirtyBytes/PageSize, math.Min(budget, scan))
	} else {
		delayMs := math.Max(10, fk.bgwriterDelay)
		rounds := dur.Seconds() * 1000 / delayMs
		maxPages := rounds * fk.bgwriterLRUMaxpages
		bgPages = math.Min(e.dirtyBytes/PageSize, maxPages)
		if bgPages == maxPages && e.dirtyBytes/PageSize > maxPages {
			e.bump("bg_maxwritten", rounds)
		}
	}
	e.dirtyBytes = math.Max(0, e.dirtyBytes-bgPages*PageSize)
	e.bump("bg_pages", bgPages)
	out.pages += bgPages

	// --- Checkpointer ---
	interval, walLimit := e.checkpointPolicyLocked(fk)
	elapsed := e.now.Add(dur).Sub(e.lastCkpt)
	// WAL volume may trip the limit several times inside one window;
	// every crossing is a requested checkpoint. A timed checkpoint fires
	// only when no WAL-driven one did.
	reqCount := int(e.walSinceCkpt / walLimit)
	timed := reqCount == 0 && elapsed >= interval
	if timed || reqCount > 0 {
		nCkpt := reqCount
		if timed {
			nCkpt = 1
		}
		// Beyond the accumulated dirty pages, every checkpoint pays a
		// fixed overhead — full-page-write inflation and data-file fsync
		// storms — which is what makes *frequent* checkpoints expensive.
		overhead := math.Min(0.01*e.dbSize, 512*1024*1024) * float64(nCkpt)
		ckptBytes := e.dirtyBytes + overhead
		if timed {
			e.bump("ckpt_timed", 1)
			e.bump("ckpt", 1)
			st.CheckpointsTimed++
		} else {
			e.bump("ckpt_req", float64(reqCount))
			e.bump("ckpt", float64(reqCount))
			st.CheckpointsReq += reqCount
		}
		e.bump("ckpt_bytes", ckptBytes)
		e.bump("ckpt_pages", ckptBytes/PageSize)
		st.CheckpointWriteBytes += ckptBytes
		// The completion target spreads a fraction of the write over the
		// coming interval; the rest lands as an immediate burst in this
		// window (the latency spikes of Fig. 5).
		burstFrac := e.checkpointBurstFracLocked(fk)
		burst := ckptBytes * burstFrac
		out.pages += burst / PageSize
		spread := e.checkpointSpreadLocked(fk, elapsed)
		if spread < dur {
			spread = dur
		}
		e.ckptSurgeRate = ckptBytes * (1 - burstFrac) / spread.Seconds()
		e.ckptSurgeLeft = spread
		e.dirtyBytes = 0
		e.walSinceCkpt = 0
		e.lastCkpt = e.now.Add(dur)
	}
	// Surge writeback attributed to the checkpointer.
	if e.ckptSurgeLeft > 0 {
		d := dur
		if e.ckptSurgeLeft < d {
			d = e.ckptSurgeLeft
		}
		surgePages := e.ckptSurgeRate * d.Seconds() / PageSize
		out.pages += surgePages
		e.ckptSurgeLeft -= dur
	}

	// --- Vacuum / purge ---
	if e.now.Sub(e.lastVacuum) >= 10*time.Minute {
		vacPages := e.dbSize * 0.0005 / PageSize
		e.bump("vacuum_pages", vacPages)
		out.pages += vacPages
		e.lastVacuum = e.now
	}
	return out
}

// checkpointPolicyLocked returns (max interval, WAL volume limit) that
// trigger a checkpoint for the engine flavour.
func (e *Engine) checkpointPolicyLocked(fk *flatKnobs) (time.Duration, float64) {
	if e.engineName == string(knobs.MySQL) {
		// Redo capacity: two log files, checkpoint near 80% full.
		capBytes := 2 * fk.innodbLogFileSize * 0.8
		return 30 * time.Minute, capBytes
	}
	interval := time.Duration(fk.checkpointTimeout) * time.Millisecond
	return interval, fk.maxWALSize
}

// checkpointSpreadLocked is how long a checkpoint spreads its deferred
// writes, based on the observed spacing between checkpoints.
func (e *Engine) checkpointSpreadLocked(fk *flatKnobs, elapsed time.Duration) time.Duration {
	if e.engineName == string(knobs.MySQL) {
		// InnoDB paces flushing by io_capacity rather than a target
		// fraction; approximate with a fixed fraction of the spacing.
		return elapsed / 4
	}
	target := fk.ckptCompletionTarget
	if target <= 0 {
		target = 0.5
	}
	return time.Duration(float64(elapsed) * target)
}

// checkpointBurstFracLocked is the fraction of a checkpoint's write
// volume that lands immediately rather than being spread: PostgreSQL's
// (1 − checkpoint_completion_target), a fixed half for InnoDB.
func (e *Engine) checkpointBurstFracLocked(fk *flatKnobs) float64 {
	if e.engineName == string(knobs.MySQL) {
		return 0.5
	}
	target := fk.ckptCompletionTarget
	if target <= 0 {
		target = 0.5
	}
	return 1 - target
}

// WorkingSetBytes returns the current working-set estimate (the gauging
// approach of Curino et al. the paper adopts for buffer sizing).
func (e *Engine) WorkingSetBytes() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.workingSet
}
