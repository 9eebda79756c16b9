package safety

import (
	"fmt"
	"time"

	"autodbaas/internal/knobs"
	"autodbaas/internal/simdb"
	"autodbaas/internal/workload"
)

// Shadow canary: before a candidate config touches the live instance,
// it is evaluated against a faithful shadow of that instance.
//
// Phase 1 (Explain): the candidate is priced hypothetically against
// the instance's recent query log — simdb re-plans and re-prices the
// logged statements under a config overlay without executing anything.
// A candidate whose estimated total cost exceeds the current config's
// by more than ExplainTolerancePct is vetoed outright; this catches
// gross planner-visible regressions (work_mem collapse, buffer
// starvation) for the price of a few plan computations.
//
// Phase 2 (probe): two throwaway engines are built from the master's
// CheckpointState — byte-identical clones of its caches, counters,
// query log and PRNG position. One keeps the current config (the
// control), the other applies the candidate; both then run one short
// probe window of the instance's own workload in virtual time. The
// trial must hold throughput within (1-TolerancePct)× and P99 within
// (1+TolerancePct)× of the control. A candidate that fails to apply on
// the clone (memory-budget crash, validation) is vetoed before the
// probe runs.
//
// The clones are discarded afterwards; the master is only read, so the
// canary consumes none of the live instance's randomness and the gate
// decision is a pure function of (master state, candidate).

// cloneEngine builds a throwaway engine with the master's shape and
// overwrites its state with the master's checkpoint state.
func cloneEngine(master *simdb.Engine) (*simdb.Engine, error) {
	c, err := simdb.NewEngine(simdb.Options{
		Engine:       knobs.Engine(master.EngineName()),
		Resources:    master.Resources(),
		DBSizeBytes:  master.DBSizeBytes(),
		Seed:         1, // overwritten by the restored PRNG position
		QueryLogSize: master.QueryLogCap(),
	})
	if err != nil {
		return nil, err
	}
	if err := c.RestoreCheckpointState(master.CheckpointState()); err != nil {
		return nil, err
	}
	return c, nil
}

// canary runs both phases and records one canary run. A veto counts
// against the instance; infrastructure failures (clone construction)
// fail open — the post-apply watch still protects the instance.
func (g *Gate) canary(id string, master *simdb.Engine, gen workload.Generator, cand knobs.Config) Decision {
	g.mu.Lock()
	g.stateLocked(id).CanaryRuns++
	g.canaryRuns++
	g.mu.Unlock()
	g.m.canaryRuns.Inc()

	// Phase 1: hypothetical pricing of the recent query log.
	if ids := simdb.TemplateIDs(master.QueryLog(g.opts.ExplainStatements)); len(ids) > 0 {
		candMs, nCand := master.HypotheticalRunTemplatesMs(cand, ids)
		curMs, nCur := master.HypotheticalRunTemplatesMs(nil, ids)
		if nCand > 0 && nCur > 0 && curMs > 0 && candMs > curMs*(1+g.opts.ExplainTolerancePct) {
			g.veto(id, ReasonExplain)
			return Decision{Reason: ReasonExplain,
				Detail: fmt.Sprintf("hypothetical cost %.1fms > %.1fms (+%.0f%%)", candMs, curMs, g.opts.ExplainTolerancePct*100)}
		}
	}

	// Phase 2: probe window on cloned engine state.
	if gen == nil {
		return Decision{Allow: true}
	}
	control, err := cloneEngine(master)
	if err != nil {
		return Decision{Allow: true}
	}
	trial, err := cloneEngine(master)
	if err != nil {
		return Decision{Allow: true}
	}
	if err := trial.ApplyConfig(cand, simdb.ApplyReload); err != nil {
		// The candidate crashes or fails validation on a faithful clone —
		// it would do the same to the live instance.
		g.veto(id, ReasonCanaryApply)
		return Decision{Reason: ReasonCanaryApply, Detail: err.Error()}
	}
	dur := time.Duration(g.opts.ProbeWindowSec) * time.Second
	ctrlStats, ctrlErr := control.RunWindow(gen, dur)
	trialStats, trialErr := trial.RunWindow(gen, dur)
	if trialErr != nil && ctrlErr == nil {
		g.veto(id, ReasonCanaryProbe)
		return Decision{Reason: ReasonCanaryProbe, Detail: trialErr.Error()}
	}
	if ctrlErr != nil {
		// The control failed too (master checkpointed while down): the
		// probe is uninformative either way.
		return Decision{Allow: true}
	}
	tol := g.opts.TolerancePct
	if ctrlStats.Achieved > 0 && trialStats.Achieved < ctrlStats.Achieved*(1-tol) {
		g.veto(id, ReasonCanaryProbe)
		return Decision{Reason: ReasonCanaryProbe,
			Detail: fmt.Sprintf("probe qps %.1f < control %.1f", trialStats.Achieved, ctrlStats.Achieved)}
	}
	if ctrlStats.P99Ms > 0 && trialStats.P99Ms > ctrlStats.P99Ms*(1+tol) {
		g.veto(id, ReasonCanaryProbe)
		return Decision{Reason: ReasonCanaryProbe,
			Detail: fmt.Sprintf("probe p99 %.1fms > control %.1fms", trialStats.P99Ms, ctrlStats.P99Ms)}
	}
	return Decision{Allow: true}
}

// attributeRegression is the watch's counterfactual check. A watched
// window dipped below the armed baseline — but under fault injection
// and shifting load a dip alone proves nothing about the config: a
// disk spike or a traffic drop looks exactly like a bad apply. Two
// clean clones of the instance replay the same workload in virtual
// time, one keeping the watched config (the clone as restored), one
// rolled back to the rollback target; only when the watched config is
// genuinely worse than that counterfactual is the dip attributed to
// the apply. Fault hooks do not ride CheckpointState, so both sides
// probe fault-free. Called with g.mu held; touches only the master's
// own lock.
func (g *Gate) attributeRegression(master *simdb.Engine, gen workload.Generator, rollbackTo knobs.Config) bool {
	if master == nil || gen == nil {
		return true // nothing to probe with: believe the dip
	}
	trial, err := cloneEngine(master)
	if err != nil {
		return true
	}
	control, err := cloneEngine(master)
	if err != nil {
		return true
	}
	if err := control.ApplyConfig(rollbackTo, simdb.ApplyReload); err != nil {
		// The rollback target won't even apply on a faithful clone:
		// rolling back would not help, so don't blame the config.
		return false
	}
	dur := time.Duration(g.opts.ProbeWindowSec) * time.Second
	ctrlStats, ctrlErr := control.RunWindow(gen, dur)
	trialStats, trialErr := trial.RunWindow(gen, dur)
	if trialErr != nil && ctrlErr == nil {
		return true
	}
	if ctrlErr != nil {
		return false
	}
	tol := g.opts.TolerancePct
	if ctrlStats.Achieved > 0 && trialStats.Achieved < ctrlStats.Achieved*(1-tol) {
		return true
	}
	if ctrlStats.P99Ms > 0 && trialStats.P99Ms > ctrlStats.P99Ms*(1+tol) {
		return true
	}
	return false
}
