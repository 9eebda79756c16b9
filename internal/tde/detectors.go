package tde

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"autodbaas/internal/entropy"
	"autodbaas/internal/knobs"
	"autodbaas/internal/sqlparse"
)

// detectMemoryLocked implements the §3.1 memory-knob detector: sampled
// templates are EXPLAINed from the statistics the engine remembers for
// them, their class included; any plan that would use disk for a
// working area implicates the corresponding memory knob. Throttles pass
// through the entropy filter, which may convert a run of them into a
// plan-upgrade signal.
func (t *TDE) detectMemoryLocked(now time.Time, ids []string) []Event {
	type finding struct {
		knob  string
		class sqlparse.Class
	}
	seen := map[string]finding{}
	for i, id := range ids {
		// A sample holds a handful of distinct templates. Each is
		// EXPLAINed at its last entry only: every entry of it finds the
		// same, and a knob keeps the class of the last entry implicating it.
		if slices.Contains(ids[i+1:], id) {
			continue
		}
		plan, cls, ok := t.db.ExplainTemplate(id)
		if !ok || !plan.UsesDisk {
			continue
		}
		if plan.MemRequired > plan.MemGranted {
			k := t.workAreaKnob(cls)
			seen[k] = finding{k, cls}
		}
		if plan.MaintRequired > plan.MaintGranted {
			k := t.maintKnob()
			seen[k] = finding{k, cls}
		}
		if plan.TempRequired > plan.TempGranted {
			k := t.tempKnob()
			seen[k] = finding{k, cls}
		}
	}

	var events []Event
	if len(seen) == 0 {
		t.filter.ObserveQuiet()
	} else {
		hist := t.classes[:]
		// Visit knobs in name order: the entropy filter counts throttles
		// in sequence, so map order would make the verdicts random.
		implicated := make([]string, 0, len(seen))
		for knob := range seen {
			implicated = append(implicated, knob)
		}
		sort.Strings(implicated)
		for _, knob := range implicated {
			f := seen[knob]
			decision, eta, _ := t.filter.ObserveThrottle(hist, t.atCapLocked(knob))
			switch decision {
			case entropy.Forward:
				events = append(events, Event{
					At: now, Kind: KindThrottle, Class: knobs.Memory, Knob: knob,
					Entropy: eta,
					Reason:  fmt.Sprintf("plan for %s-class template spills; %s insufficient", f.class, knob),
				})
			case entropy.PlanUpgrade:
				events = append(events, Event{
					At: now, Kind: KindPlanUpgrade, Class: knobs.Memory, Knob: knob,
					Entropy: eta,
					Reason:  "memory knobs at cap with evenly distributed throttle classes; instance plan insufficient",
				})
			default: // entropy.Hold — suppressed
			}
		}
	}

	// Buffer-pool advisory: the gauged working set vs the (restart-only)
	// buffer-pool knob, consumed by the maintenance-window logic.
	pool, _ := t.db.Knob(t.kcat.BufferPoolKnob())
	if ws := t.db.WorkingSetBytes(); ws > 1.15*pool {
		events = append(events, Event{
			At: now, Kind: KindBufferAdvisory, Class: knobs.Memory,
			Knob: t.kcat.BufferPoolKnob(), WorkingSet: ws,
			Entropy: math.NaN(),
			Reason:  fmt.Sprintf("working set %.0f MB exceeds buffer pool %.0f MB", ws/1e6, pool/1e6),
		})
	}
	return events
}

// workAreaKnob maps a query class to the engine's working-area knob.
func (t *TDE) workAreaKnob(cls sqlparse.Class) string {
	if t.db.EngineName() == string(knobs.MySQL) {
		if cls == sqlparse.ClassJoin {
			return "join_buffer_size"
		}
		return "sort_buffer_size"
	}
	return "work_mem"
}

func (t *TDE) maintKnob() string {
	if t.db.EngineName() == string(knobs.MySQL) {
		return "key_buffer_size"
	}
	return "maintenance_work_mem"
}

func (t *TDE) tempKnob() string {
	if t.db.EngineName() == string(knobs.MySQL) {
		return "tmp_table_size"
	}
	return "temp_buffers"
}

// atCapLocked reports whether a knob is effectively maxed out: near its
// own maximum, or the instance memory budget leaves no room to grow it.
func (t *TDE) atCapLocked(knob string) bool {
	def := t.kcat.Def(knob)
	if def == nil {
		return false
	}
	cfg := t.db.Config()
	if cfg[knob] >= t.cfg.CapFraction*def.Max {
		return true
	}
	budget := knobs.MemoryBudget{
		TotalBytes:      t.db.Resources().MemoryBytes,
		WorkMemSessions: 8,
	}
	footprint := t.kcat.MemoryFootprint(cfg, budget)
	return footprint >= 0.85*budget.TotalBytes
}

// detectBgWriterLocked implements §3.2: compare the live system's
// checkpoint-rate-to-disk-latency ratio against the mapped baseline.
func (t *TDE) detectBgWriterLocked(now time.Time) []Event {
	// This tick's snapshot is read into the map of the one before last,
	// which then trades places with lastSnap: two maps serve every tick.
	// The swap comes before any early return, so Snapshots always
	// describes the latest tick.
	t.prevSnap = t.db.SnapshotInto(t.prevSnap)
	t.prevSnap, t.lastSnap = t.lastSnap, t.prevSnap
	t.prevSnapAt, t.lastSnapAt = t.lastSnapAt, now
	prev, snap := t.prevSnap, t.lastSnap
	elapsed := now.Sub(t.prevSnapAt).Seconds()
	if elapsed <= 0 {
		return nil
	}
	var ckptDelta float64
	if t.db.EngineName() == string(knobs.MySQL) {
		// InnoDB checkpoints are redo-capacity driven; all of them
		// indicate flushing pressure.
		ckptDelta = snap["innodb_checkpoints"] - prev["innodb_checkpoints"]
	} else {
		// Scheduled (timed) checkpoints are benign; requested ones mean
		// the WAL filled before the schedule — the classic undersized
		// max_wal_size signal.
		ckptDelta = snap["checkpoints_req"] - prev["checkpoints_req"]
	}

	// Use the write-side latency: the paper monitors "disk-write
	// latency" (its split-disk strategy exists precisely to isolate
	// checkpoint/bgwriter writes from other traffic).
	dlat := snap["disk_write_latency_ms"]
	if dlat <= 0 || ckptDelta <= 0 {
		return nil
	}
	bCkpt, bLat, ok := t.baseline.BgWriterBaseline(snap)
	if !ok || bLat <= 0 {
		// Cold tuner (no mapped workload yet): bootstrap from the static
		// tuned-TPCC reference instead of going blind — otherwise no
		// throttle would ever fire, no sample would ever be gated in,
		// and the dynamic baseline could never warm up.
		def := DefaultBaseline()
		bCkpt, bLat = def.CkptPerSec, def.DiskLatencyMs
	}
	// The paper compares "the ratio of checkpointing per unit time and
	// disk latency" against the mapped baseline. Read literally
	// (rate ÷ latency) the quantity rewards high latency, so a healthy
	// low-latency system would throttle forever; we use the product —
	// checkpoint *pressure* — which preserves the intended decision:
	// more frequent checkpoints at worse latency than the baseline ⇒
	// the bgwriter knobs need tuning.
	pressureA := (ckptDelta / elapsed) * dlat
	pressureB := bCkpt * bLat
	if pressureA <= pressureB {
		return nil
	}
	knob := "max_wal_size"
	if t.db.EngineName() == string(knobs.MySQL) {
		knob = "innodb_io_capacity"
	}
	return []Event{{
		At: now, Kind: KindThrottle, Class: knobs.BgWriter, Knob: knob,
		Entropy: math.NaN(),
		Reason: fmt.Sprintf("checkpoint pressure %.2e exceeds mapped baseline %.2e (%.1f ckpt/h at %.2f ms)",
			pressureA, pressureB, ckptDelta/elapsed*3600, dlat),
	}}
}

// detectAsyncPlannerLocked implements §3.3: one learning-automata step
// per planner knob per tick, pricing reservoir-sampled statements under
// the perturbed configuration. A profitable step raises a throttle.
//
// The current config is priced first and alone: when nothing can be
// priced, no automaton draws. Then each automaton chooses its action, in
// order (Choose is all they draw), one call prices every probe, and
// Feedback and Commit follow in the same order.
func (t *TDE) detectAsyncPlannerLocked(now time.Time, ids []string) []Event {
	if len(ids) == 0 {
		return nil
	}
	sampled := ids[:min(t.cfg.MDPSampleQueries, len(ids))]
	cur, priced := t.db.HypotheticalRunTemplatesMs(nil, sampled)
	if priced == 0 || cur <= 0 {
		return nil
	}

	for i, a := range t.automata {
		// Track the live knob value: tuner recommendations may have
		// moved it since the last tick.
		if v, ok := t.db.Knob(a.Knob); ok {
			_ = a.SetValue(v)
		}
		t.acts[i] = a.Choose(t.rng)
		t.probes[i][a.Knob] = a.Candidate(t.acts[i])
	}
	t.db.HypotheticalRunTemplatesMsEach(t.probes, sampled, t.alts)
	var events []Event
	for i, a := range t.automata {
		act, cand := t.acts[i], t.probes[i][a.Knob]
		profit := cur - t.alts[i]
		rewarded := profit > t.cfg.MDPMinProfitFraction*cur
		a.Feedback(act, rewarded)
		if rewarded {
			a.Commit(act)
			events = append(events, Event{
				At: now, Kind: KindThrottle, Class: knobs.AsyncPlanner, Knob: a.Knob,
				Entropy: math.NaN(),
				Reason: fmt.Sprintf("MDP probe: %s %s to %.3g improves sampled cost by %.1f%%",
					a.Knob, act, cand, 100*profit/cur),
			})
		}
	}
	return events
}
