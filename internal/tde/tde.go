// Package tde implements the Throttling Detection Engine, the core
// contribution of the AutoDBaaS paper (§3). The TDE runs periodically on
// the database master VM and decides *when* the database actually needs
// tuning, replacing the periodic recommendation requests of classic
// tuner deployments with event-driven ones. It hosts three detectors,
// one per knob class:
//
//   - memory: reservoir-sampled query templates are EXPLAINed; a plan
//     that would spill a working area to disk raises a throttle, gated
//     by the normalized-entropy filter that separates "mis-set knob"
//     from "undersized instance plan" (§3.1);
//   - background writer: the checkpoint-rate/disk-latency ratio of the
//     live system is compared against the baseline of the most similar
//     workload the tuner has seen (§3.2);
//   - async/planner: a learning-automata MDP perturbs planner knobs by
//     unit steps and raises a throttle whenever a perturbation shows a
//     cost/benefit profit (§3.3).
package tde

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"autodbaas/internal/entropy"
	"autodbaas/internal/knobs"
	"autodbaas/internal/mdp"
	"autodbaas/internal/metrics"
	"autodbaas/internal/prng"
	"autodbaas/internal/sampling"
	"autodbaas/internal/simdb"
	"autodbaas/internal/sqlparse"
)

// EventKind classifies TDE output events.
type EventKind int

// Event kinds.
const (
	// KindThrottle asks the config director for a tuning recommendation.
	KindThrottle EventKind = iota
	// KindPlanUpgrade tells the customer the VM plan is insufficient
	// (entropy filter verdict); no tuning request is sent.
	KindPlanUpgrade
	// KindBufferAdvisory reports buffer-pool sizing information for the
	// next scheduled maintenance window (restart-required knob).
	KindBufferAdvisory
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case KindThrottle:
		return "throttle"
	case KindPlanUpgrade:
		return "plan-upgrade"
	case KindBufferAdvisory:
		return "buffer-advisory"
	default:
		return "unknown"
	}
}

// Event is one TDE detection outcome.
type Event struct {
	At    time.Time
	Kind  EventKind
	Class knobs.Class // knob class the event concerns
	Knob  string      // specific knob implicated (may be empty)
	// Entropy is the η value when an entropy evaluation ran (NaN else).
	Entropy float64
	// WorkingSet carries the gauged working-set size on buffer advisories.
	WorkingSet float64
	Reason     string
}

// Baseline supplies the bgwriter detector's reference point: the
// checkpoint rate and disk latency of the most similar workload the
// tuner has tuned well ("workload B" of §3.2). Implementations typically
// delegate to the BO tuner's workload mapping.
type Baseline interface {
	// BgWriterBaseline maps the live metric sample to a reference
	// (checkpointsPerSecond, diskLatencyMs). ok=false when no mapping
	// is possible yet (cold start). The TDE reuses the sample's map, so
	// an implementation must not keep it past the call.
	BgWriterBaseline(sample metrics.Snapshot) (ckptPerSec, diskLatencyMs float64, ok bool)
}

// StaticBaseline is a fixed reference, e.g. the tuned-TPCC baseline of
// Fig. 5 (one checkpoint per 10 minutes at 6.5 ms average disk latency).
type StaticBaseline struct {
	CkptPerSec    float64
	DiskLatencyMs float64
}

// BgWriterBaseline implements Baseline.
func (s StaticBaseline) BgWriterBaseline(metrics.Snapshot) (float64, float64, bool) {
	return s.CkptPerSec, s.DiskLatencyMs, true
}

// DefaultBaseline is the tuned-TPCC reference the paper derives in §3.2
// (one checkpoint per ~10 minutes at the tuned system's write latency).
// The latency value is in the simulator's SSD scale; the paper's testbed
// measured 6.5 ms on EBS volumes — only the product (pressure) matters.
func DefaultBaseline() StaticBaseline {
	return StaticBaseline{CkptPerSec: 1.0 / 600, DiskLatencyMs: 2.0}
}

// Config tunes TDE behaviour.
type Config struct {
	// LogBatch is how many recent log lines each tick inspects; the
	// engine's ring holds simdb.DefaultQueryLogSize.
	LogBatch int
	// ReservoirSize bounds the sampled template pool.
	ReservoirSize int
	// CapFraction: a memory knob counts as "at cap" when its value
	// exceeds this fraction of its maximum or of what the instance
	// budget allows.
	CapFraction float64
	// MDPSampleQueries is how many sampled statements the MDP prices.
	MDPSampleQueries int
	// MDPMinProfitFraction: a probe must beat the current config by this
	// fraction to count as profitable (filters noise).
	MDPMinProfitFraction float64
	Seed                 int64
}

// DefaultConfig returns the paper-faithful defaults.
func DefaultConfig() Config {
	return Config{
		LogBatch:             simdb.DefaultQueryLogSize,
		ReservoirSize:        64,
		CapFraction:          0.9,
		MDPSampleQueries:     32,
		MDPMinProfitFraction: 0.02,
	}
}

// TDE is one throttling-detection engine bound to a database engine.
type TDE struct {
	mu sync.Mutex

	db     *simdb.Engine
	cfg    Config
	rng    *rand.Rand
	rngSrc *prng.Source // counting source behind rng (shared with reservoir)
	kcat   *knobs.Catalog

	filter    *entropy.Filter
	classes   [sqlparse.NumClasses]int // logged statements per class
	reservoir *sampling.Reservoir[string]
	automata  []*mdp.Automaton
	baseline  Baseline

	// lastSnap is the master metric snapshot taken by the latest tick
	// (at construction before the first), at lastSnapAt. prevSnap is
	// the one it replaced, at prevSnapAt; the next tick reads into its
	// map. The agent's deltas read both through Snapshots, so this is
	// the instance's only copy. Only lastSnap is checkpointed: the next
	// tick makes it prevSnap.
	lastSnap, prevSnap     metrics.Snapshot
	lastSnapAt, prevSnapAt time.Time

	// Per-round scratch, reused from tick to tick and never
	// checkpointed: per automaton, the MDP's action, its one-knob
	// override and that override's price.
	acts   []mdp.Action
	probes []knobs.Config
	alts   []float64

	// throttle counters per class (the paper's evaluation metric).
	throttles map[knobs.Class]int
	upgrades  int
	ticks     int
}

// New builds a TDE for the given engine.
func New(db *simdb.Engine, cfg Config, baseline Baseline) (*TDE, error) {
	if db == nil {
		return nil, errors.New("tde: nil engine")
	}
	if cfg.LogBatch <= 0 || cfg.ReservoirSize <= 0 {
		return nil, fmt.Errorf("tde: invalid config %+v", cfg)
	}
	if baseline == nil {
		baseline = DefaultBaseline()
	}
	rng, rngSrc := prng.New(cfg.Seed)
	res, err := sampling.NewReservoir[string](cfg.ReservoirSize, rng)
	if err != nil {
		return nil, err
	}
	t := &TDE{
		db:         db,
		cfg:        cfg,
		rng:        rng,
		rngSrc:     rngSrc,
		kcat:       db.KnobCatalog(),
		filter:     entropy.NewFilter(),
		reservoir:  res,
		baseline:   baseline,
		throttles:  make(map[knobs.Class]int),
		lastSnap:   db.Snapshot(),
		lastSnapAt: db.Now(),
	}
	t.automata, err = buildAutomata(db)
	if err != nil {
		return nil, err
	}
	for _, a := range t.automata {
		t.probes = append(t.probes, knobs.Config{a.Knob: a.Value()})
	}
	t.acts, t.alts = make([]mdp.Action, len(t.automata)), make([]float64, len(t.automata))
	return t, nil
}

// buildAutomata creates one learning automaton per async/planner knob
// whose unit step is a fixed fraction of its range.
func buildAutomata(db *simdb.Engine) ([]*mdp.Automaton, error) {
	kcat := db.KnobCatalog()
	var out []*mdp.Automaton
	for _, name := range kcat.NamesByClass(knobs.AsyncPlanner) {
		def := kcat.Def(name)
		if def.Restart {
			continue // probing restart knobs online is impossible
		}
		step := (def.Max - def.Min) * 0.05
		if step <= 0 {
			continue
		}
		v, _ := db.Knob(name)
		a, err := mdp.NewAutomaton(name, v, step, def.Min, def.Max)
		if err != nil {
			return nil, fmt.Errorf("tde: automaton for %s: %w", name, err)
		}
		out = append(out, a)
	}
	return out, nil
}

// Throttles returns per-class throttle counts since construction.
func (t *TDE) Throttles() map[knobs.Class]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[knobs.Class]int, len(t.throttles))
	for k, v := range t.throttles {
		out[k] = v
	}
	return out
}

// Upgrades returns how many plan-upgrade events were raised.
func (t *TDE) Upgrades() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.upgrades
}

// Ticks returns how many detection rounds have run.
func (t *TDE) Ticks() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ticks
}

// Snapshots returns the master metric snapshots of the latest Tick: the
// one it took (cur, at curAt) and the one before it (prev, at prevAt),
// the construction-time snapshot on the first tick. Both maps are the
// TDE's own; they stay valid until the next Tick and must not be
// modified.
func (t *TDE) Snapshots() (prev, cur metrics.Snapshot, prevAt, curAt time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.prevSnap, t.lastSnap, t.prevSnapAt, t.lastSnapAt
}

// Tick runs one detection round and returns the raised events.
func (t *TDE) Tick() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	// Ingest the recent query log into the class histogram and the
	// reservoir. Every entry carries the template ID and class the
	// engine took from the executed statement, so nothing is templated
	// here. The entries are visited in the engine's ring, not copied.
	t.db.VisitQueryLog(t.cfg.LogBatch, func(le simdb.LogEntry) {
		t.classes[le.Class]++
		t.reservoir.Offer(le.TemplateID)
	})
	return t.detectLocked()
}

// detectLocked runs the three detectors on the ingested state and
// counts what they raised. The reservoir is read once for the memory
// and MDP detectors; neither changes it.
func (t *TDE) detectLocked() []Event {
	t.ticks++
	now := t.db.Now()
	ids := t.reservoir.Sample()
	var events []Event
	events = append(events, t.detectMemoryLocked(now, ids)...)
	events = append(events, t.detectBgWriterLocked(now)...)
	events = append(events, t.detectAsyncPlannerLocked(now, ids)...)

	for _, ev := range events {
		switch ev.Kind {
		case KindThrottle:
			t.throttles[ev.Class]++
		case KindPlanUpgrade:
			t.upgrades++
		}
	}
	return events
}

// NewWithThreshold builds a TDE whose entropy filter arms after the
// given number of consecutive memory throttles instead of the paper's
// default of 8 — the knob the threshold-sweep ablation exercises.
func NewWithThreshold(db *simdb.Engine, cfg Config, baseline Baseline, consecutive int) (*TDE, error) {
	if consecutive <= 0 {
		return nil, fmt.Errorf("tde: consecutive threshold %d", consecutive)
	}
	t, err := New(db, cfg, baseline)
	if err != nil {
		return nil, err
	}
	t.filter.ConsecutiveThreshold = consecutive
	// With a very low arming threshold the entropy evaluation runs on
	// nearly every throttle; keep the default η threshold.
	return t, nil
}
