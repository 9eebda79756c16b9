// Package dfa implements the Data Federation Agent: the component that
// actually lands configuration recommendations on database service
// instances. It refuses instances the service orchestrator does not
// manage, selects the engine-specific adapter, applies the config to all
// nodes of the instance — slaves first, so a crash rejects the
// recommendation before the master is touched — and persists accepted
// configs back to the orchestrator (paper §2, §4).
package dfa

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"autodbaas/internal/cluster"
	"autodbaas/internal/knobs"
	"autodbaas/internal/obs"
	"autodbaas/internal/orchestrator"
	"autodbaas/internal/simdb"
)

// Adapter knows how to apply a configuration to one engine flavour.
// "The DFA has multiple adapter implementations to get connected to
// various kinds of database services."
type Adapter interface {
	Engine() knobs.Engine
	// Apply lands cfg on the replica set with the given method,
	// slave-first. Implementations must validate cfg for their engine.
	Apply(rs *simdb.ReplicaSet, cfg knobs.Config, method simdb.ApplyMethod) error
}

// genericAdapter is the shared slave-first implementation, parameterized
// by engine for validation.
type genericAdapter struct {
	engine knobs.Engine
	kcat   *knobs.Catalog
}

// NewPostgresAdapter returns the PostgreSQL adapter.
func NewPostgresAdapter() Adapter {
	return &genericAdapter{engine: knobs.Postgres, kcat: knobs.PostgresCatalog()}
}

// NewMySQLAdapter returns the MySQL adapter.
func NewMySQLAdapter() Adapter {
	return &genericAdapter{engine: knobs.MySQL, kcat: knobs.MySQLCatalog()}
}

// Engine implements Adapter.
func (a *genericAdapter) Engine() knobs.Engine { return a.engine }

// Apply implements Adapter.
func (a *genericAdapter) Apply(rs *simdb.ReplicaSet, cfg knobs.Config, method simdb.ApplyMethod) error {
	if err := a.kcat.Validate(cfg); err != nil {
		return fmt.Errorf("dfa: %s adapter: %w", a.engine, err)
	}
	// Dry-run the memory budget before touching any node: single-node
	// instances have no slave canary, so an obviously OOM-bound config
	// must be rejected up front.
	master := rs.Master()
	merged := master.Config()
	for k, v := range master.PendingRestartConfig() {
		merged[k] = v
	}
	for k, v := range cfg {
		merged[k] = v
	}
	budget := knobs.MemoryBudget{TotalBytes: master.Resources().MemoryBytes, WorkMemSessions: 4}
	if err := a.kcat.CheckMemoryBudget(merged, budget); err != nil {
		return fmt.Errorf("dfa: %s adapter dry-run: %w", a.engine, err)
	}
	return rs.ApplyAll(cfg, method)
}

// ErrNoAdapter is returned when no adapter matches the instance engine.
var ErrNoAdapter = errors.New("dfa: no adapter for engine")

// ErrRejected wraps apply failures: the recommendation was rejected and
// the master remains on its previous configuration.
var ErrRejected = errors.New("dfa: recommendation rejected")

// DFA applies recommendations through engine adapters.
type DFA struct {
	mu       sync.Mutex
	orch     *orchestrator.Orchestrator
	adapters map[knobs.Engine]Adapter

	applied  int
	rejected int

	m dfaMetrics
}

// dfaMetrics are the DFA's registry handles, one apply counter per
// strategy so reload-vs-restart traffic is visible at a glance.
type dfaMetrics struct {
	applies      [3]*obs.Counter // indexed by simdb.ApplyMethod
	rejections   *obs.Counter
	applySeconds *obs.Histogram
}

func newDFAMetrics(r *obs.Registry) dfaMetrics {
	m := dfaMetrics{
		rejections:   r.Counter("autodbaas_dfa_rejections_total", "Recommendations rejected by the apply path."),
		applySeconds: r.Histogram("autodbaas_dfa_apply_seconds", "Wall-clock latency of one apply-strategy run.", nil),
	}
	for _, method := range []simdb.ApplyMethod{simdb.ApplyReload, simdb.ApplySocketActivation, simdb.ApplyRestart} {
		m.applies[method] = r.Counter("autodbaas_dfa_applies_total",
			"Recommendations successfully applied, by strategy.", obs.L("method", method.String()))
	}
	return m
}

// New returns a DFA with the standard adapters registered.
func New(orch *orchestrator.Orchestrator) *DFA {
	d := &DFA{orch: orch, adapters: make(map[knobs.Engine]Adapter), m: newDFAMetrics(obs.Default())}
	d.Register(NewPostgresAdapter())
	d.Register(NewMySQLAdapter())
	return d
}

// Register installs an adapter (replacing any previous one).
func (d *DFA) Register(a Adapter) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.adapters[a.Engine()] = a
}

// Applied returns the count of successfully applied recommendations.
func (d *DFA) Applied() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.applied
}

// Rejected returns the count of rejected recommendations.
func (d *DFA) Rejected() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rejected
}

// Apply lands cfg on the instance: an instance the orchestrator did not
// provision is refused, the adapter applies slave-first, and on success
// the config is persisted so re-deployments keep it. Restart-required
// knobs are staged by the engines and picked up at the next maintenance
// restart.
func (d *DFA) Apply(inst *cluster.Instance, cfg knobs.Config, method simdb.ApplyMethod) error {
	if inst == nil {
		return errors.New("dfa: nil instance")
	}
	start := time.Now()
	defer func() { d.m.applySeconds.Observe(time.Since(start).Seconds()) }()
	if err := d.orch.Known(inst.ID); err != nil {
		return fmt.Errorf("dfa: %w", err)
	}
	d.mu.Lock()
	adapter, ok := d.adapters[inst.Engine]
	d.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoAdapter, inst.Engine)
	}
	if err := adapter.Apply(inst.Replica, cfg, method); err != nil {
		d.mu.Lock()
		d.rejected++
		d.mu.Unlock()
		d.m.rejections.Inc()
		return fmt.Errorf("%w: %v", ErrRejected, err)
	}
	// Persist what the master now runs (tunables applied immediately)
	// merged with staged restart knobs, so the next redeploy boots
	// straight into the full recommendation.
	persist := inst.Replica.Master().Config()
	for k, v := range inst.Replica.Master().PendingRestartConfig() {
		persist[k] = v
	}
	if err := d.orch.PersistConfig(inst.ID, persist); err != nil {
		return fmt.Errorf("dfa: persist: %w", err)
	}
	d.mu.Lock()
	d.applied++
	d.mu.Unlock()
	if int(method) >= 0 && int(method) < len(d.m.applies) {
		d.m.applies[method].Inc()
	}
	return nil
}
