// Package director implements the Config Director: the control-plane
// service between the on-VM agents and the tuner fleet. It receives
// TDE events (throttles, plan-upgrade signals, buffer advisories),
// load-balances recommendation requests across tuner instances, pushes
// accepted recommendations through the Data Federation Agent, stores
// them in the config data repository (the orchestrator's persistence),
// and runs the scheduled-maintenance logic for non-tunable knobs (§4).
package director

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"autodbaas/internal/cluster"
	"autodbaas/internal/dfa"
	"autodbaas/internal/knobs"
	"autodbaas/internal/obs"
	"autodbaas/internal/orchestrator"
	"autodbaas/internal/safety"
	"autodbaas/internal/simdb"
	"autodbaas/internal/tde"
	"autodbaas/internal/tuner"
)

// Director coordinates throttle events, tuners and config application.
// It is safe for concurrent intake from many agents: fleet-wide
// counters are atomics, the round-robin cursor is lock-free, and all
// per-instance maintenance state lives in per-instance shards with
// their own locks, so events for different instances never contend.
type Director struct {
	tuners []tuner.Tuner
	next   atomic.Uint64 // round-robin cursor

	orch *orchestrator.Orchestrator
	dfa  *dfa.DFA

	// gate, when set, vetoes unsafe recommendations before apply and
	// drives automatic rollback on post-apply regression (see
	// internal/safety). Set once at wiring time, before any traffic.
	gate *safety.Gate

	// shardMu guards the shard map itself (read-mostly); each shard
	// carries its own lock for the state inside.
	shardMu sync.RWMutex
	shards  map[string]*instShard

	// Fleet-wide counters: the atomics are the single source of truth
	// for the Counters() accessor; the obs handles in
	// m mirror them into the process-wide metrics registry.
	tuningRequests  atomic.Int64
	planUpgrades    atomic.Int64
	recommendations atomic.Int64
	applyFailures   atomic.Int64
	circuitSkips    atomic.Int64
	circuitTrips    atomic.Int64

	m directorMetrics
}

// Circuit-breaker tuning: BreakerThreshold consecutive failed
// recommendation rounds for one instance open its circuit, and rounds
// for it are skipped until BreakerCooldown of the instance's own
// virtual time has elapsed. The first round after the cooldown is a
// half-open probe; its failure reopens the circuit immediately, its
// success closes it. ErrNotTrained is neutral — a cold tuner during
// bootstrap is not a failing instance.
const (
	BreakerThreshold = 3
	BreakerCooldown  = 30 * time.Minute
)

// directorMetrics are the director's registry handles, resolved once at
// construction so the intake hot path only touches atomics.
type directorMetrics struct {
	eventsThrottle  *obs.Counter
	eventsUpgrade   *obs.Counter
	eventsAdvisory  *obs.Counter
	tuningRequests  *obs.Counter
	recommendations *obs.Counter
	applyFailures   *obs.Counter
	pendingUpgrades *obs.Gauge
	inflight        *obs.Gauge
	roundSeconds    *obs.Histogram
	maintWindows    *obs.Counter
	circuitOpen     *obs.Gauge
	circuitSkips    *obs.Counter
	circuitTrips    *obs.Counter
}

func newDirectorMetrics(r *obs.Registry) directorMetrics {
	events := "autodbaas_director_events_total"
	return directorMetrics{
		eventsThrottle:  r.Counter(events, "TDE events received by kind.", obs.L("kind", "throttle")),
		eventsUpgrade:   r.Counter(events, "", obs.L("kind", "plan_upgrade")),
		eventsAdvisory:  r.Counter(events, "", obs.L("kind", "buffer_advisory")),
		tuningRequests:  r.Counter("autodbaas_director_tuning_requests_total", "Tuning requests dispatched to the tuner pool."),
		recommendations: r.Counter("autodbaas_director_recommendations_total", "Recommendations returned by tuners."),
		applyFailures:   r.Counter("autodbaas_director_apply_failures_total", "Recommendations rejected on apply."),
		pendingUpgrades: r.Gauge("autodbaas_director_pending_upgrade_requests", "Plan-upgrade signals awaiting customer action, fleet-wide."),
		inflight:        r.Gauge("autodbaas_director_inflight_recommendations", "Recommendation rounds currently in flight (tuner fan-out depth)."),
		roundSeconds:    r.Histogram("autodbaas_director_tuning_round_seconds", "Wall-clock latency of one tuning round (recommend + apply).", nil),
		maintWindows:    r.Counter("autodbaas_director_maintenance_windows_total", "Maintenance windows executed."),
		circuitOpen:     r.Gauge("autodbaas_director_circuit_open", "Instances whose recommendation circuit is currently open."),
		circuitSkips:    r.Counter("autodbaas_director_circuit_skips_total", "Recommendation rounds skipped because the instance circuit was open."),
		circuitTrips:    r.Counter("autodbaas_director_circuit_trips_total", "Circuit-breaker trips (including reopened half-open probes)."),
	}
}

// instShard is the per-instance slice of director state: maintenance
// bookkeeping for the buffer-pool knob plus the plan-upgrade queue. Its
// lock is private, so concurrent intake for different instances never
// serializes.
type instShard struct {
	mu          sync.Mutex
	workingSets []float64 // recent gauged working-set sizes
	bufferRecs  []float64 // buffer-knob values seen in recommendations
	entropyHits int       // plan-upgrade signals since last window
	// upgradeRequests counts plan-upgrade signals for this instance —
	// the "ask the customer to upgrade" queue.
	upgradeRequests int

	// Circuit breaker (chaos hardening): consecutive failed rounds open
	// the circuit so a crash-looping instance cannot monopolise the
	// tuner pool or stall the fleet scheduler's ordered merge phase.
	failStreak int
	open       bool
	openUntil  time.Time // instance virtual time
	probing    bool      // half-open probe in flight
}

// New returns a Director over the given tuner pool.
func New(orch *orchestrator.Orchestrator, d *dfa.DFA, tuners ...tuner.Tuner) (*Director, error) {
	if len(tuners) == 0 {
		return nil, errors.New("director: need at least one tuner")
	}
	return &Director{
		tuners: tuners,
		orch:   orch,
		dfa:    d,
		shards: make(map[string]*instShard),
		m:      newDirectorMetrics(obs.Default()),
	}, nil
}

// Counters returns (tuningRequests, recommendations, applyFailures,
// planUpgrades) so far.
func (d *Director) Counters() (int, int, int, int) {
	return int(d.tuningRequests.Load()), int(d.recommendations.Load()),
		int(d.applyFailures.Load()), int(d.planUpgrades.Load())
}

// SetSafetyGate wires the safe-tuning gate in front of every apply.
// Call once at system wiring time, before any traffic flows.
func (d *Director) SetSafetyGate(g *safety.Gate) { d.gate = g }

// SafetyGate returns the wired gate (nil when safety is off).
func (d *Director) SafetyGate() *safety.Gate { return d.gate }

// SafetyTotals returns the gate's fleet-wide counters (vetoes, canary
// runs, rollbacks, regressing applies); zeros when safety is off.
func (d *Director) SafetyTotals() (vetoes, canaryRuns, rollbacks, regressing int64) {
	if d.gate == nil {
		return 0, 0, 0, 0
	}
	return d.gate.Totals()
}

// SafetyStatus returns one instance's gate snapshot; ok=false when
// safety is off or the gate has never seen the instance.
func (d *Director) SafetyStatus(id string) (safety.Status, bool) {
	if d.gate == nil {
		return safety.Status{}, false
	}
	return d.gate.Status(id)
}

// SafetyObserve feeds one completed observation window into the gate
// and performs the automatic rollback when the gate orders one. The
// fleet scheduler calls it in the ordered merge phase, right after the
// instance's dispatch, so rollbacks land at a deterministic point of
// the control-plane schedule. A rollback counts as a breaker failure:
// an instance whose applies keep regressing should trip its circuit
// exactly like one whose applies keep erroring.
func (d *Director) SafetyObserve(inst *cluster.Instance, stats simdb.WindowStats, up bool) {
	if d.gate == nil {
		return
	}
	to, rollback := d.gate.ObserveWindow(inst.ID, inst.Replica.Master(), stats, up)
	if !rollback {
		return
	}
	st := d.shard(inst.ID)
	vnow := inst.Replica.Master().Now()
	if err := d.dfa.Apply(inst, to, simdb.ApplyReload); err != nil {
		// The rollback apply itself failed (injected fault, node down);
		// the breaker accounting below still records the bad round.
		d.applyFailures.Add(1)
		d.m.applyFailures.Inc()
	}
	d.breakerFailure(st, vnow)
}

// pickTuner round-robins across the tuner pool (the director "performs
// load balancing of recommendation request tasks across multiple tuner
// instances").
func (d *Director) pickTuner() tuner.Tuner {
	return d.tuners[int((d.next.Add(1)-1)%uint64(len(d.tuners)))]
}

// shard returns instance id's state shard, creating it on first use.
func (d *Director) shard(id string) *instShard {
	d.shardMu.RLock()
	st, ok := d.shards[id]
	d.shardMu.RUnlock()
	if ok {
		return st
	}
	d.shardMu.Lock()
	defer d.shardMu.Unlock()
	if st, ok = d.shards[id]; !ok {
		st = &instShard{}
		d.shards[id] = st
	}
	return st
}

// ForgetInstance drops an instance's director-side state — maintenance
// bookkeeping, plan-upgrade queue and circuit breaker — when the fleet
// service deprovisions it. A later instance with the same ID starts
// from a clean shard, exactly as a first-time onboarding would.
func (d *Director) ForgetInstance(id string) {
	if d.gate != nil {
		d.gate.Forget(id)
	}
	d.shardMu.Lock()
	st, ok := d.shards[id]
	if ok {
		delete(d.shards, id)
	}
	d.shardMu.Unlock()
	if !ok {
		return
	}
	st.mu.Lock()
	pending, open := st.upgradeRequests, st.open
	st.mu.Unlock()
	if pending > 0 {
		d.m.pendingUpgrades.Add(-float64(pending))
	}
	if open {
		d.m.circuitOpen.Add(-1)
	}
}

// breakerAllow reports whether a recommendation round may run for the
// shard at virtual time now, letting exactly one half-open probe
// through once the cooldown has expired.
func (d *Director) breakerAllow(st *instShard, now time.Time) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.open {
		return true
	}
	if now.Before(st.openUntil) || st.probing {
		return false
	}
	st.probing = true
	return true
}

// breakerSuccess closes the shard's circuit after a clean round.
func (d *Director) breakerSuccess(st *instShard) {
	st.mu.Lock()
	wasOpen := st.open
	st.failStreak = 0
	st.open = false
	st.probing = false
	st.mu.Unlock()
	if wasOpen {
		d.m.circuitOpen.Add(-1)
	}
}

// breakerFailure records a failed round: a failed half-open probe
// reopens the circuit for another cooldown, and BreakerThreshold
// consecutive failures open a closed one.
func (d *Director) breakerFailure(st *instShard, now time.Time) {
	st.mu.Lock()
	st.failStreak++
	wasOpen := st.open
	trip := false
	switch {
	case st.probing:
		st.probing = false
		st.openUntil = now.Add(BreakerCooldown)
		trip = true
	case !st.open && st.failStreak >= BreakerThreshold:
		st.open = true
		st.openUntil = now.Add(BreakerCooldown)
		trip = true
	}
	st.mu.Unlock()
	if trip {
		d.circuitTrips.Add(1)
		d.m.circuitTrips.Inc()
		if !wasOpen {
			d.m.circuitOpen.Add(1)
		}
	}
}

// CircuitSkips returns how many recommendation rounds were skipped on
// an open circuit; CircuitTrips how many times a circuit opened
// (including reopened probes); OpenCircuits how many instances are
// currently broken.
func (d *Director) CircuitSkips() int { return int(d.circuitSkips.Load()) }

// CircuitTrips returns the number of circuit-breaker trips so far.
func (d *Director) CircuitTrips() int { return int(d.circuitTrips.Load()) }

// CircuitOpen reports whether one instance's recommendation circuit is
// currently open. The shard coordinator consults it when deciding (and
// testing) rebalances: migrating an instance drops its breaker state
// with the rest of the source shard's director bookkeeping, so the
// destination starts it half-closed like any fresh onboarding.
func (d *Director) CircuitOpen(id string) bool {
	d.shardMu.RLock()
	st, ok := d.shards[id]
	d.shardMu.RUnlock()
	if !ok {
		return false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.open
}

// OpenCircuits counts instances whose circuit is currently open.
func (d *Director) OpenCircuits() int {
	d.shardMu.RLock()
	defer d.shardMu.RUnlock()
	n := 0
	for _, st := range d.shards {
		st.mu.Lock()
		if st.open {
			n++
		}
		st.mu.Unlock()
	}
	return n
}

// ErrUnknownInstance is returned when an event references an instance
// the orchestrator does not know.
var ErrUnknownInstance = errors.New("director: unknown instance")

func (d *Director) instance(id string) (*cluster.Instance, error) {
	inst, ok := d.orch.Provisioner().Get(id)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownInstance, id)
	}
	return inst, nil
}

// HandleEvent processes one TDE event for an instance. Throttles become
// tuning requests; the resulting recommendation is applied via the DFA
// (reload path) and persisted. The error reports recommendation or
// apply failures; ErrNotTrained is expected during bootstrap.
func (d *Director) HandleEvent(instanceID string, ev tde.Event, req tuner.Request) error {
	inst, err := d.instance(instanceID)
	if err != nil {
		return err
	}
	switch ev.Kind {
	case tde.KindPlanUpgrade:
		d.planUpgrades.Add(1)
		st := d.shard(inst.ID)
		st.mu.Lock()
		st.entropyHits++
		st.upgradeRequests++
		st.mu.Unlock()
		d.m.eventsUpgrade.Inc()
		d.m.pendingUpgrades.Add(1)
		// No tuning request: the customer is asked to upgrade the plan.
		return nil
	case tde.KindBufferAdvisory:
		st := d.shard(inst.ID)
		st.mu.Lock()
		st.workingSets = append(st.workingSets, ev.WorkingSet)
		if len(st.workingSets) > 256 {
			st.workingSets = st.workingSets[len(st.workingSets)-256:]
		}
		st.mu.Unlock()
		d.m.eventsAdvisory.Inc()
		return nil
	case tde.KindThrottle:
		d.tuningRequests.Add(1)
		d.m.eventsThrottle.Inc()
		d.m.tuningRequests.Inc()
		cls := ev.Class
		req.ThrottleClass = &cls
		return d.recommend(inst, req)
	default:
		return fmt.Errorf("director: unknown event kind %v", ev.Kind)
	}
}

// RequestTuning issues an unconditional (periodic-mode) tuning request —
// the baseline AutoDBaaS compares TDE gating against.
func (d *Director) RequestTuning(instanceID string, req tuner.Request) error {
	inst, err := d.instance(instanceID)
	if err != nil {
		return err
	}
	d.tuningRequests.Add(1)
	d.m.tuningRequests.Inc()
	return d.recommend(inst, req)
}

func (d *Director) recommend(inst *cluster.Instance, req tuner.Request) error {
	st := d.shard(inst.ID)
	vnow := inst.Replica.Master().Now()
	if !d.breakerAllow(st, vnow) {
		// Open circuit: skip the round entirely rather than burn a tuner
		// on an instance that keeps failing. Not an error — the agent's
		// throttle event was handled, by deliberately doing nothing.
		d.circuitSkips.Add(1)
		d.m.circuitSkips.Inc()
		return nil
	}
	start := time.Now()
	d.m.inflight.Add(1)
	defer func() {
		d.m.inflight.Add(-1)
		d.m.roundSeconds.Observe(time.Since(start).Seconds())
	}()
	// Span instants are the instance's virtual timeline; wall cost rides
	// along as an attribute when the span ends.
	span := obs.DefaultTracer().StartAt("director", "recommend", vnow)
	span.SetAttr("instance", inst.ID)
	defer func() {
		span.SetAttr("wall_ms", fmt.Sprintf("%.3f", time.Since(start).Seconds()*1e3))
		span.EndAt(inst.Replica.Master().Now())
	}()

	master := inst.Replica.Master()
	if d.gate != nil {
		// Constrained suggestion: hand the tuner the gate's trust region
		// so candidates start inside it instead of being vetoed after.
		if center, radius, ok := d.gate.TrustCenter(inst.ID, master.Config()); ok {
			req.Constraint = &tuner.Constraint{Center: center, Radius: radius}
		}
	}

	t := d.pickTuner()
	span.SetAttr("tuner", t.Name())
	tspan := span.StartChildAt("tuner.Recommend", vnow)
	rec, err := t.Recommend(req)
	tspan.EndAt(vnow)
	if err != nil {
		span.SetAttr("error", err.Error())
		if !errors.Is(err, tuner.ErrNotTrained) {
			d.breakerFailure(st, vnow)
		}
		return fmt.Errorf("director: %s: %w", t.Name(), err)
	}
	d.recommendations.Add(1)
	bp := master.KnobCatalog().BufferPoolKnob()
	if v, ok := rec.Config[bp]; ok {
		st.mu.Lock()
		st.bufferRecs = append(st.bufferRecs, v)
		if len(st.bufferRecs) > 256 {
			st.bufferRecs = st.bufferRecs[len(st.bufferRecs)-256:]
		}
		st.mu.Unlock()
	}
	d.m.recommendations.Inc()

	if d.gate != nil {
		// Gate + resample loop: a vetoed candidate is excluded and the
		// tuner re-asked, up to MaxResamples times. Each Recommend call
		// advances the tuner's RNG deterministically, so the resample
		// sequence is identical at every parallelism level. A round whose
		// every candidate is vetoed ends with no apply at all — handled,
		// not a failure: the gate protected the instance.
		gspan := span.StartChildAt("safety.Admit", vnow)
		dec := d.gate.Admit(inst.ID, master, rec.Config)
		for resamples := 0; !dec.Allow && resamples < d.gate.MaxResamples(); resamples++ {
			if req.Constraint == nil {
				req.Constraint = &tuner.Constraint{}
			}
			req.Constraint.Exclude = append(req.Constraint.Exclude, rec.Config)
			rec2, rerr := t.Recommend(req)
			if rerr != nil {
				break
			}
			rec = rec2
			dec = d.gate.Admit(inst.ID, master, rec.Config)
		}
		if !dec.Allow {
			gspan.SetAttr("veto", dec.Reason)
			gspan.SetAttr("detail", dec.Detail)
			gspan.EndAt(vnow)
			span.SetAttr("vetoed", dec.Reason)
			d.breakerSuccess(st)
			return nil
		}
		gspan.EndAt(vnow)
	}

	preApply := master.Config()
	aspan := span.StartChildAt("dfa.Apply", vnow)
	if err := d.dfa.Apply(inst, rec.Config, simdb.ApplyReload); err != nil {
		aspan.SetAttr("error", err.Error())
		aspan.EndAt(vnow)
		d.applyFailures.Add(1)
		d.m.applyFailures.Inc()
		d.breakerFailure(st, vnow)
		return err
	}
	aspan.EndAt(vnow)
	if d.gate != nil {
		d.gate.NotifyApplied(inst.ID, rec.Config, preApply)
	}
	d.breakerSuccess(st)
	return nil
}

// PendingUpgradeRequests returns how many plan-upgrade signals have
// accumulated for an instance (the customer-facing "your plan is too
// small" queue).
func (d *Director) PendingUpgradeRequests(instanceID string) int {
	st := d.shard(instanceID)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.upgradeRequests
}

// ClearUpgradeRequests resets the queue after the customer acts.
func (d *Director) ClearUpgradeRequests(instanceID string) {
	st := d.shard(instanceID)
	st.mu.Lock()
	cleared := st.upgradeRequests
	st.upgradeRequests = 0
	st.mu.Unlock()
	d.m.pendingUpgrades.Add(-float64(cleared))
}

// MaintenanceWindowByID resolves the instance and runs MaintenanceWindow.
func (d *Director) MaintenanceWindowByID(instanceID string) error {
	inst, err := d.instance(instanceID)
	if err != nil {
		return err
	}
	return d.MaintenanceWindow(inst)
}

// MaintenanceWindow performs the scheduled-downtime handling of the
// non-tunable buffer-pool knob (§4): size it from the gauged working
// set, bounded by the instance budget; if the 99th percentile of
// recommended values is below the current value and at least one
// entropy hit occurred, shrink it to make room for tunable knobs.
// The chosen value is staged and every node restarts.
func (d *Director) MaintenanceWindow(inst *cluster.Instance) error {
	d.m.maintWindows.Inc()
	master := inst.Replica.Master()
	kcat := master.KnobCatalog()
	bp := kcat.BufferPoolKnob()
	def := kcat.Def(bp)
	cur := master.Config()[bp]

	st := d.shard(inst.ID)
	st.mu.Lock()
	ws := percentile(st.workingSets, 0.95)
	p99 := percentile(st.bufferRecs, 0.99)
	entropyHits := st.entropyHits
	st.entropyHits = 0
	st.mu.Unlock()

	// Upper limit: buffer pool may use at most 60% of instance memory.
	maxAllowed := 0.6 * master.Resources().MemoryBytes
	target := cur
	switch {
	case p99 > 0 && p99 < cur && entropyHits > 0:
		// Tunable knobs kept throttling: create room by shrinking.
		target = p99
	case ws > cur:
		target = math.Min(ws, maxAllowed)
	}
	target = math.Max(def.Min, math.Min(target, math.Min(def.Max, maxAllowed)))
	if target == cur {
		return nil // nothing to do this window
	}
	// Growing the pool must not blow the instance budget: fit the whole
	// configuration, shrinking tunable working areas if needed.
	full := master.Config()
	for k, v := range master.PendingRestartConfig() {
		full[k] = v
	}
	full[bp] = target
	cfg := kcat.FitMemoryBudget(full, knobs.MemoryBudget{
		TotalBytes: master.Resources().MemoryBytes, WorkMemSessions: 4,
	})
	if err := d.dfa.Apply(inst, cfg, simdb.ApplyReload); err != nil {
		return err
	}
	// The buffer knob is restart-required: restart every node now that
	// the value is staged (the scheduled downtime).
	for _, node := range inst.Replica.Nodes() {
		if err := node.Restart(); err != nil {
			return fmt.Errorf("director: maintenance restart: %w", err)
		}
	}
	persist := inst.Replica.Master().Config()
	return d.orch.PersistConfig(inst.ID, persist)
}

// percentile returns the p-quantile of vs (0 for empty input).
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
