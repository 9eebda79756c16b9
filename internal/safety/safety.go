// Package safety implements the safe online tuning gate that sits
// between the tuner's recommendation and the director's apply — the
// missing production layer arXiv:2203.14473 argues every cloud tuner
// needs: online tuning must *never* regress a live instance.
//
// The gate combines four mechanisms:
//
//  1. Per-instance performance baselines: EWMAs of the objective
//     (achieved throughput) and P99 latency over recent quality
//     windows, checkpoint-marshalled so they survive kill/restore.
//  2. A shadow canary: before any fleet-visible apply, the candidate
//     config is priced against the instance's recent query log
//     (simdb's hypothetical Explain) and then run for a short probe
//     window on a cloned engine state, in virtual time, next to an
//     identically cloned control running the current config.
//  3. A trust region: candidates whose normalized knob-space distance
//     from the best-known-good config exceeds the current radius are
//     vetoed; the radius grows on success and shrinks on failure.
//  4. Automatic rollback: after an apply, the next WatchWindows
//     windows are judged against the pre-apply baseline (as the
//     load-invariant achieved/offered ratio plus P99); a dip beyond
//     the tolerance band triggers a counterfactual attribution probe —
//     watched config versus rollback config on clean clones — and only
//     a confirmed config-caused regression rolls the instance back to
//     the last known-good config.
//
// Determinism is the design center: every decision is a pure function
// of per-instance state and the instance's own engine state, made in
// the fleet scheduler's ordered merge phase, so gate verdicts are
// bit-for-bit identical at every parallelism level and shard layout,
// clean or faulted. Canary probes run on throwaway engine clones and
// consume no randomness from the live instance.
package safety

import (
	"fmt"
	"math"
	"sync"

	"autodbaas/internal/knobs"
	"autodbaas/internal/linalg"
	"autodbaas/internal/obs"
	"autodbaas/internal/simdb"
	"autodbaas/internal/workload"
)

// Options tunes the gate. The zero value is invalid; use
// DefaultOptions. All fields are JSON-serializable so the options can
// ride shard configs over the worker RPC seam.
type Options struct {
	// BaselineAlpha is the EWMA smoothing factor for the per-instance
	// objective/P99 baselines (default 0.3).
	BaselineAlpha float64 `json:"baseline_alpha,omitempty"`
	// MinQualityWindows is how many quality windows an instance must
	// have served before the gate starts vetoing — earlier applies
	// pass ungated so bootstrap tuning is unaffected (default 3).
	MinQualityWindows int `json:"min_quality_windows,omitempty"`
	// TolerancePct is the regression tolerance band, as a fraction:
	// a probe or post-apply window regresses when throughput drops
	// below (1-TolerancePct)× or P99 rises above (1+TolerancePct)×
	// the reference (default 0.15).
	TolerancePct float64 `json:"tolerance_pct,omitempty"`
	// ExplainTolerancePct is the (looser) veto band for the canary's
	// Explain phase, which prices the query log hypothetically under
	// the candidate config (default 0.5).
	ExplainTolerancePct float64 `json:"explain_tolerance_pct,omitempty"`
	// InitialRadius is the trust region's starting radius in
	// normalized knob space (each knob mapped to [0,1], distance
	// scaled to [0,1] by sqrt(dims); default 0.35).
	InitialRadius float64 `json:"initial_radius,omitempty"`
	// RadiusGrow multiplies the radius after a watched apply survives
	// (default 1.25); RadiusShrink after a regression (default 0.5).
	RadiusGrow   float64 `json:"radius_grow,omitempty"`
	RadiusShrink float64 `json:"radius_shrink,omitempty"`
	// MinRadius/MaxRadius clamp the radius (defaults 0.05 / 1.0).
	MinRadius float64 `json:"min_radius,omitempty"`
	MaxRadius float64 `json:"max_radius,omitempty"`
	// ProbeWindowSec is the virtual duration of the canary's simulated
	// probe window on the cloned engines (default 60).
	ProbeWindowSec int `json:"probe_window_sec,omitempty"`
	// ExplainStatements bounds how many recent query-log statements
	// the Explain phase prices (default 32, at most
	// simdb.DefaultQueryLogSize).
	ExplainStatements int `json:"explain_statements,omitempty"`
	// WatchWindows is how many post-apply windows are judged against
	// the armed baseline before the applied config is promoted to
	// known-good (default 2).
	WatchWindows int `json:"watch_windows,omitempty"`
	// MaxResamples bounds how many times the director re-asks the
	// tuner after a veto, excluding the vetoed configs (default 2).
	MaxResamples int `json:"max_resamples,omitempty"`
}

// DefaultOptions returns the gate defaults described above.
func DefaultOptions() Options {
	return Options{
		BaselineAlpha:       0.3,
		MinQualityWindows:   3,
		TolerancePct:        0.15,
		ExplainTolerancePct: 0.5,
		InitialRadius:       0.35,
		RadiusGrow:          1.25,
		RadiusShrink:        0.5,
		MinRadius:           0.05,
		MaxRadius:           1.0,
		ProbeWindowSec:      60,
		ExplainStatements:   32,
		WatchWindows:        2,
		MaxResamples:        2,
	}
}

// withDefaults fills zero fields so partially-specified options (e.g.
// from a hand-written shard config) behave like DefaultOptions.
func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.BaselineAlpha <= 0 {
		o.BaselineAlpha = d.BaselineAlpha
	}
	if o.MinQualityWindows <= 0 {
		o.MinQualityWindows = d.MinQualityWindows
	}
	if o.TolerancePct <= 0 {
		o.TolerancePct = d.TolerancePct
	}
	if o.ExplainTolerancePct <= 0 {
		o.ExplainTolerancePct = d.ExplainTolerancePct
	}
	if o.InitialRadius <= 0 {
		o.InitialRadius = d.InitialRadius
	}
	if o.RadiusGrow <= 0 {
		o.RadiusGrow = d.RadiusGrow
	}
	if o.RadiusShrink <= 0 {
		o.RadiusShrink = d.RadiusShrink
	}
	if o.MinRadius <= 0 {
		o.MinRadius = d.MinRadius
	}
	if o.MaxRadius <= 0 {
		o.MaxRadius = d.MaxRadius
	}
	if o.ProbeWindowSec <= 0 {
		o.ProbeWindowSec = d.ProbeWindowSec
	}
	if o.ExplainStatements <= 0 {
		o.ExplainStatements = d.ExplainStatements
	}
	if o.WatchWindows <= 0 {
		o.WatchWindows = d.WatchWindows
	}
	if o.MaxResamples <= 0 {
		o.MaxResamples = d.MaxResamples
	}
	return o
}

// Validate rejects options the gate cannot honour. The Explain phase
// reads the master's query log, which holds simdb.DefaultQueryLogSize
// statements; a larger ExplainStatements would silently price fewer.
func (o Options) Validate() error {
	if o.ExplainStatements > simdb.DefaultQueryLogSize {
		return fmt.Errorf("safety: explain_statements %d exceeds the query log's %d slots", o.ExplainStatements, simdb.DefaultQueryLogSize)
	}
	return nil
}

// Veto reasons, the label values of autodbaas_safety_vetoes_total.
const (
	ReasonTrustRegion = "trust_region"
	ReasonExplain     = "explain"
	ReasonCanaryApply = "canary_apply"
	ReasonCanaryProbe = "canary_probe"
)

// Decision is the gate's verdict on one candidate config.
type Decision struct {
	Allow bool
	// Reason names the veto kind (empty when allowed) and Detail the
	// specific comparison that failed — for spans and logs.
	Reason string
	Detail string
}

// instState is the per-instance slice of gate state. Exported fields:
// the struct marshals verbatim into the extra/safety snapshot section.
type instState struct {
	// Baselines. BaseRatio is the EWMA of Achieved/Offered — the
	// load-invariant form of the objective, so a traffic drop does not
	// read as a performance regression.
	QualityWindows int     `json:"quality_windows"`
	BaseObj        float64 `json:"base_obj"`
	BaseP99        float64 `json:"base_p99"`
	BaseRatio      float64 `json:"base_ratio"`

	// Trust region.
	KnownGood    knobs.Config `json:"known_good,omitempty"`
	KnownGoodObj float64      `json:"known_good_obj,omitempty"`
	Radius       float64      `json:"radius"`

	// Post-apply watch.
	Watching    bool         `json:"watching,omitempty"`
	PendingArm  bool         `json:"pending_arm,omitempty"`
	WatchLeft   int          `json:"watch_left,omitempty"`
	WatchCfg    knobs.Config `json:"watch_cfg,omitempty"`
	RollbackCfg knobs.Config `json:"rollback_cfg,omitempty"`
	ArmRatio    float64      `json:"arm_ratio,omitempty"`
	ArmP99      float64      `json:"arm_p99,omitempty"`

	// Per-instance lifetime counters.
	Vetoes            int64 `json:"vetoes,omitempty"`
	CanaryRuns        int64 `json:"canary_runs,omitempty"`
	Rollbacks         int64 `json:"rollbacks,omitempty"`
	RegressingApplies int64 `json:"regressing_applies,omitempty"`
}

// Status is one instance's externally visible gate state, served on
// the fleet API's per-database rows.
type Status struct {
	BaselineObj       float64 `json:"baseline_qps"`
	BaselineP99Ms     float64 `json:"baseline_p99_ms"`
	QualityWindows    int     `json:"quality_windows"`
	TrustRadius       float64 `json:"trust_radius"`
	HasKnownGood      bool    `json:"has_known_good"`
	Watching          bool    `json:"watching"`
	Vetoes            int64   `json:"vetoes"`
	CanaryRuns        int64   `json:"canary_runs"`
	Rollbacks         int64   `json:"rollbacks"`
	RegressingApplies int64   `json:"regressing_applies"`
}

// gateMetrics are the gate's registry handles, resolved once.
type gateMetrics struct {
	vetoes     map[string]*obs.Counter
	canaryRuns *obs.Counter
	rollbacks  *obs.Counter
	regressing *obs.Counter
}

func newGateMetrics(r *obs.Registry) gateMetrics {
	vetoes := make(map[string]*obs.Counter, 4)
	for _, reason := range []string{ReasonTrustRegion, ReasonExplain, ReasonCanaryApply, ReasonCanaryProbe} {
		vetoes[reason] = r.Counter("autodbaas_safety_vetoes_total",
			"Candidate configs vetoed by the safety gate, by reason.", obs.L("reason", reason))
	}
	return gateMetrics{
		vetoes:     vetoes,
		canaryRuns: r.Counter("autodbaas_safety_canary_runs_total", "Shadow canary evaluations (Explain + cloned probe window)."),
		rollbacks:  r.Counter("autodbaas_safety_rollbacks_total", "Automatic rollbacks to the last known-good config."),
		regressing: r.Counter("autodbaas_safety_regressing_applies_total", "Applies that regressed a live instance beyond the tolerance band."),
	}
}

// Gate is the safe-tuning gate. One Gate serves a whole System; all
// state is per-instance under one lock (decisions happen in the fleet
// scheduler's single-threaded merge phase, so the lock is cheap — it
// exists for the HTTP status surface reading concurrently).
type Gate struct {
	opts Options

	mu   sync.Mutex
	inst map[string]*instState
	gens map[string]workload.Generator

	vetoes     int64
	canaryRuns int64
	rollbacks  int64
	regressing int64

	m gateMetrics
}

// NewGate builds a gate with the given options (zero fields default).
func NewGate(opts Options) *Gate {
	return &Gate{
		opts: opts.withDefaults(),
		inst: make(map[string]*instState),
		gens: make(map[string]workload.Generator),
		m:    newGateMetrics(obs.Default()),
	}
}

// Options returns the gate's effective (defaulted) options.
func (g *Gate) Options() Options { return g.opts }

// MaxResamples returns how many veto-and-retry rounds the director
// should attempt per tuning round.
func (g *Gate) MaxResamples() int { return g.opts.MaxResamples }

// RegisterWorkload attaches the instance's workload generator so
// canary probes can replay representative traffic on the cloned
// engine. Generators are stateless samplers, so sharing one between
// the live agent and probes is side-effect-free.
func (g *Gate) RegisterWorkload(id string, gen workload.Generator) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.gens[id] = gen
}

// Forget drops all per-instance gate state — on deprovision and on
// resize (a new plan invalidates the baselines and known-good config).
func (g *Gate) Forget(id string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.inst, id)
	delete(g.gens, id)
}

// state returns id's state, creating it on first use.
func (g *Gate) stateLocked(id string) *instState {
	st, ok := g.inst[id]
	if !ok {
		st = &instState{Radius: g.opts.InitialRadius}
		g.inst[id] = st
	}
	return st
}

// RecordKnownGood seeds the instance's known-good config — the warm
// start path: a donor's best config that SeedConfig applied before the
// instance served traffic becomes the trust region's first center.
func (g *Gate) RecordKnownGood(id string, cfg knobs.Config) {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := g.stateLocked(id)
	st.KnownGood = cfg.Clone()
}

// TrustCenter returns the config the trust region is centered on and
// its radius, or ok=false while the instance is still bootstrapping
// (no constraint should be passed to the tuner then). Before the first
// known-good promotion the center is the instance's currently applied
// config.
func (g *Gate) TrustCenter(id string, current knobs.Config) (center knobs.Config, radius float64, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	st, exists := g.inst[id]
	if !exists || st.QualityWindows < g.opts.MinQualityWindows {
		return nil, 0, false
	}
	if st.KnownGood != nil {
		return st.KnownGood.Clone(), st.Radius, true
	}
	return current.Clone(), st.Radius, true
}

// normDistance is the trust region metric: both configs normalized
// over the catalogue's tunable knobs to [0,1]^d, Euclidean distance
// scaled by sqrt(d) so it lives in [0,1] regardless of dimensionality.
func normDistance(kcat *knobs.Catalog, a, b knobs.Config) float64 {
	names := kcat.TunableNames()
	if len(names) == 0 {
		return 0
	}
	va := kcat.Normalize(a, names)
	vb := kcat.Normalize(b, names)
	return linalg.EuclideanDistance(va, vb) / math.Sqrt(float64(len(names)))
}

// Admit is the gate decision for one candidate config, called by the
// director between tuner.Recommend and dfa.Apply. master is the live
// instance's primary engine; its state is read (config, query log,
// checkpoint state) but never mutated.
func (g *Gate) Admit(id string, master *simdb.Engine, cand knobs.Config) Decision {
	g.mu.Lock()
	st := g.stateLocked(id)
	opts := g.opts
	bootstrap := st.QualityWindows < opts.MinQualityWindows
	var center knobs.Config
	if !bootstrap {
		if st.KnownGood != nil {
			center = st.KnownGood
		} else {
			center = master.Config()
		}
	}
	radius := st.Radius
	gen := g.gens[id]
	g.mu.Unlock()

	if bootstrap {
		// Cold instance: baselines are meaningless, and blocking early
		// applies would starve the tuner of the samples it needs.
		return Decision{Allow: true}
	}

	// Trust region: reject candidates far from the known-good config.
	if center != nil {
		if d := normDistance(master.KnobCatalog(), cand, center); d > radius {
			g.veto(id, ReasonTrustRegion)
			return Decision{Reason: ReasonTrustRegion,
				Detail: fmt.Sprintf("distance %.3f > radius %.3f", d, radius)}
		}
	}

	return g.canary(id, master, gen, cand)
}

// veto records one veto on the instance and fleet totals.
func (g *Gate) veto(id, reason string) {
	g.mu.Lock()
	g.stateLocked(id).Vetoes++
	g.vetoes++
	g.mu.Unlock()
	g.m.vetoes[reason].Inc()
}

// NotifyApplied arms the post-apply watch after the director applied
// cfg to the instance. preApply is the config that was live before the
// apply; the rollback target is the known-good config when one exists,
// else preApply. Baselines freeze while the watch runs so the
// candidate cannot grade its own homework.
func (g *Gate) NotifyApplied(id string, applied, preApply knobs.Config) {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := g.stateLocked(id)
	st.Watching = true
	// The first ObserveWindow after an apply still carries the stats
	// of the window that *produced* the recommendation (the apply
	// happens inside that window's dispatch), so it is skipped.
	st.PendingArm = true
	st.WatchLeft = g.opts.WatchWindows
	st.WatchCfg = applied.Clone()
	if st.KnownGood != nil {
		st.RollbackCfg = st.KnownGood.Clone()
	} else {
		st.RollbackCfg = preApply.Clone()
	}
	st.ArmRatio = st.BaseRatio
	st.ArmP99 = st.BaseP99
}

// ObserveWindow feeds one completed observation window into the gate:
// baseline EWMA maintenance plus the post-apply watch. up reports
// whether the window completed without an instance error; master is
// the instance's live primary engine, read-only, used for the watch's
// counterfactual attribution probe (nil is tolerated and makes the
// watch believe any dip). A dip below the armed baseline alone is not
// a verdict — under fault injection and shifting load the dip is
// first attributed by probing the watched config against the rollback
// config on clean clones; only a confirmed config-caused regression
// is counted, and then the rollback config and true are returned and
// the caller must apply it (the automatic rollback).
func (g *Gate) ObserveWindow(id string, master *simdb.Engine, stats simdb.WindowStats, up bool) (rollbackTo knobs.Config, rollback bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := g.stateLocked(id)
	quality := up && stats.Offered > 0 && stats.Duration > 0
	var ratio float64
	if quality {
		ratio = stats.Achieved / stats.Offered
	}

	if st.Watching {
		if st.PendingArm {
			// Pre-apply window: stats predate the watched config.
			st.PendingArm = false
			return nil, false
		}
		if !quality {
			// A faulted window proves nothing either way; keep watching.
			return nil, false
		}
		tol := g.opts.TolerancePct
		objRegress := st.ArmRatio > 0 && ratio < st.ArmRatio*(1-tol)
		p99Regress := st.ArmP99 > 0 && stats.P99Ms > st.ArmP99*(1+tol)
		if objRegress || p99Regress {
			// The dip is real; whether the config caused it is decided by
			// the counterfactual probe, which counts as a canary run.
			st.CanaryRuns++
			g.canaryRuns++
			g.m.canaryRuns.Inc()
			if g.attributeRegression(master, g.gens[id], st.RollbackCfg) {
				st.RegressingApplies++
				st.Rollbacks++
				g.regressing++
				g.rollbacks++
				g.m.regressing.Inc()
				g.m.rollbacks.Inc()
				st.Radius = clampRadius(st.Radius*g.opts.RadiusShrink, g.opts)
				to := st.RollbackCfg
				st.Watching, st.WatchLeft = false, 0
				st.WatchCfg, st.RollbackCfg = nil, nil
				return to, true
			}
			// Environmental dip: the watched config matched its
			// counterfactual, so the window still counts toward the watch.
		}
		st.WatchLeft--
		if st.WatchLeft <= 0 {
			// Survived the watch: promote to known-good, widen the region.
			st.KnownGood = st.WatchCfg
			st.KnownGoodObj = stats.Achieved
			st.Radius = clampRadius(st.Radius*g.opts.RadiusGrow, g.opts)
			st.Watching = false
			st.WatchCfg, st.RollbackCfg = nil, nil
			// Fall through: this clean window also refreshes the baseline.
		} else {
			return nil, false
		}
	}

	if quality {
		st.QualityWindows++
		a := g.opts.BaselineAlpha
		if st.QualityWindows == 1 {
			st.BaseObj, st.BaseP99, st.BaseRatio = stats.Achieved, stats.P99Ms, ratio
		} else {
			st.BaseObj = a*stats.Achieved + (1-a)*st.BaseObj
			st.BaseP99 = a*stats.P99Ms + (1-a)*st.BaseP99
			st.BaseRatio = a*ratio + (1-a)*st.BaseRatio
		}
	}
	return nil, false
}

func clampRadius(r float64, o Options) float64 {
	return math.Max(o.MinRadius, math.Min(r, o.MaxRadius))
}

// Status returns the instance's gate snapshot (ok=false when the gate
// has never seen the instance).
func (g *Gate) Status(id string) (Status, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	st, ok := g.inst[id]
	if !ok {
		return Status{}, false
	}
	return Status{
		BaselineObj:       st.BaseObj,
		BaselineP99Ms:     st.BaseP99,
		QualityWindows:    st.QualityWindows,
		TrustRadius:       st.Radius,
		HasKnownGood:      st.KnownGood != nil,
		Watching:          st.Watching,
		Vetoes:            st.Vetoes,
		CanaryRuns:        st.CanaryRuns,
		Rollbacks:         st.Rollbacks,
		RegressingApplies: st.RegressingApplies,
	}, true
}

// Totals returns the fleet-wide lifetime counters: vetoes, canary
// runs, rollbacks, regressing applies.
func (g *Gate) Totals() (vetoes, canaryRuns, rollbacks, regressing int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.vetoes, g.canaryRuns, g.rollbacks, g.regressing
}
