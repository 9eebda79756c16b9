// Package orchestrator implements the Service Orchestrator of the
// AutoDBaaS architecture (§2, §4): lifecycle operations for database
// service instances, durable configuration persistence (so
// re-deployments never lose tuned knobs), and the reconciler that
// watches for config drift between the persisted truth and what the
// master node actually runs. An instance is known to the orchestrator
// exactly while it has a persisted configuration.
package orchestrator

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"autodbaas/internal/cluster"
	"autodbaas/internal/knobs"
	"autodbaas/internal/obs"
	"autodbaas/internal/simdb"
)

// ErrUnknownInstance is returned for operations on unknown instance IDs.
var ErrUnknownInstance = errors.New("orchestrator: unknown instance")

// Orchestrator owns instance lifecycle and config persistence.
type Orchestrator struct {
	mu sync.Mutex

	prov *cluster.Provisioner
	// persisted holds each provisioned instance's configuration truth;
	// its keys are the instances this orchestrator manages.
	persisted map[string]knobs.Config
	// driftSince records when a divergence between the persisted config
	// and the master's live config was first observed. A down node counts
	// as drift: a stuck restart leaves live == persisted but the service
	// degraded, and only the reconciler will ever bring it back.
	driftSince map[string]time.Time
	// repairFails counts consecutive failed repairs per instance;
	// retryAt is the backoff deadline before the next repair attempt.
	repairFails map[string]int
	retryAt     map[string]time.Time

	// WatcherTimeout is how long drift must persist before the
	// reconciler forces the persisted config back onto all nodes.
	WatcherTimeout time.Duration
	// ReloadRetries bounds per-node apply attempts within one repair;
	// RetryBackoff is the base virtual-time backoff after a failed
	// repair, doubling per consecutive failure; after EscalateAfter
	// failed repairs the reconciler escalates from reload to restart.
	ReloadRetries int
	RetryBackoff  time.Duration
	EscalateAfter int

	reconciliations int
	retries         int
	escalations     int

	m orchestratorMetrics
}

// orchestratorMetrics are the orchestrator's registry handles.
type orchestratorMetrics struct {
	instances       *obs.Gauge
	reconcileTicks  *obs.Counter
	reconciliations *obs.Counter
	drifting        *obs.Gauge
	redeploys       *obs.Counter
	redeploySeconds *obs.Histogram
	retriesTotal    *obs.Counter
	escalations     *obs.Counter
}

func newOrchestratorMetrics(r *obs.Registry) orchestratorMetrics {
	return orchestratorMetrics{
		instances:       r.Gauge("autodbaas_orchestrator_instances", "Database service instances provisioned."),
		reconcileTicks:  r.Counter("autodbaas_orchestrator_reconcile_ticks_total", "Reconciler watch-loop iterations."),
		reconciliations: r.Counter("autodbaas_orchestrator_reconciliations_total", "Drift reconciliations forced onto instances."),
		drifting:        r.Gauge("autodbaas_orchestrator_drifting_instances", "Instances currently observed in config drift."),
		redeploys:       r.Counter("autodbaas_orchestrator_redeploys_total", "Re-deployments executed."),
		redeploySeconds: r.Histogram("autodbaas_orchestrator_redeploy_seconds", "Wall-clock latency of one re-deployment.", nil),
		retriesTotal:    r.Counter("autodbaas_orchestrator_retries_total", "Repeated per-node apply attempts during drift repair."),
		escalations:     r.Counter("autodbaas_orchestrator_restart_escalations_total", "Drift repairs escalated from reload to full restart."),
	}
}

// New returns an orchestrator over a fresh provisioner.
func New() *Orchestrator {
	return &Orchestrator{
		prov:           cluster.NewProvisioner(),
		persisted:      make(map[string]knobs.Config),
		driftSince:     make(map[string]time.Time),
		repairFails:    make(map[string]int),
		retryAt:        make(map[string]time.Time),
		WatcherTimeout: 2 * time.Minute,
		ReloadRetries:  3,
		RetryBackoff:   time.Minute,
		EscalateAfter:  2,
		m:              newOrchestratorMetrics(obs.Default()),
	}
}

// Provisioner exposes the underlying IaaS provisioner.
func (o *Orchestrator) Provisioner() *cluster.Provisioner { return o.prov }

// Provision creates an instance and persists its initial (default)
// configuration.
func (o *Orchestrator) Provision(spec cluster.ProvisionSpec) (*cluster.Instance, error) {
	inst, err := o.prov.Provision(spec)
	if err != nil {
		return nil, err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.persisted[spec.ID] = inst.Replica.Master().Config()
	o.m.instances.Add(1)
	return inst, nil
}

// Deprovision tears an instance down: the reconciler stops watching it,
// its persisted configuration is forgotten, and the IaaS instance is
// released. Dynamic fleet membership requires this to be safe mid-run —
// nothing here touches any other instance's state.
func (o *Orchestrator) Deprovision(id string) error {
	o.mu.Lock()
	if _, ok := o.persisted[id]; !ok {
		o.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownInstance, id)
	}
	delete(o.persisted, id)
	delete(o.driftSince, id)
	delete(o.repairFails, id)
	delete(o.retryAt, id)
	o.mu.Unlock()
	if err := o.prov.Deprovision(id); err != nil {
		return err
	}
	o.m.instances.Add(-1)
	return nil
}

// Known returns ErrUnknownInstance unless id was provisioned here and
// not deprovisioned since.
func (o *Orchestrator) Known(id string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, ok := o.persisted[id]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownInstance, id)
	}
	return nil
}

// PersistConfig durably records cfg as the instance's source of truth.
func (o *Orchestrator) PersistConfig(id string, cfg knobs.Config) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, ok := o.persisted[id]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownInstance, id)
	}
	o.persisted[id] = cfg.Clone()
	return nil
}

// PersistedConfig returns the instance's persisted configuration.
func (o *Orchestrator) PersistedConfig(id string) (knobs.Config, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	cfg, ok := o.persisted[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownInstance, id)
	}
	return cfg.Clone(), nil
}

// Redeploy simulates a re-deployment (system update, security patch):
// every node restarts with the persisted configuration — the property
// §4 demands so that "a database reset or re-deployment doesn't
// overwrite the settings".
func (o *Orchestrator) Redeploy(id string) error {
	start := time.Now()
	o.mu.Lock()
	cfg, ok := o.persisted[id]
	o.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownInstance, id)
	}
	inst, found := o.prov.Get(id)
	if !found {
		return fmt.Errorf("%w: %s", ErrUnknownInstance, id)
	}
	span := obs.DefaultTracer().StartAt("orchestrator", "redeploy", inst.Replica.Master().Now())
	span.SetAttr("instance", id)
	defer func() {
		o.m.redeploys.Inc()
		o.m.redeploySeconds.Observe(time.Since(start).Seconds())
		span.SetAttr("wall_ms", fmt.Sprintf("%.3f", time.Since(start).Seconds()*1e3))
		span.EndAt(inst.Replica.Master().Now())
	}()
	for _, node := range inst.Replica.Nodes() {
		if err := node.ApplyConfig(cfg, simdb.ApplyRestart); err != nil {
			span.SetAttr("error", err.Error())
			return fmt.Errorf("orchestrator: redeploy %s: %w", id, err)
		}
	}
	return nil
}

// Reconciliations reports how many drift reconciliations have run.
func (o *Orchestrator) Reconciliations() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.reconciliations
}

// Retries reports repeated per-node apply attempts during drift repair.
func (o *Orchestrator) Retries() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.retries
}

// Escalations reports repairs escalated from reload to full restart.
func (o *Orchestrator) Escalations() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.escalations
}

// ReconcileTick is the reconciler's watch loop body: for every instance,
// compare the master's live tunable config with the persisted one; if
// they diverge — or any node is down — for longer than WatcherTimeout,
// force the persisted config back onto all nodes with bounded per-node
// retries. Repairs that keep failing back off exponentially (virtual
// time) and, after EscalateAfter failures, escalate from reload to a
// full restart with the persisted config. Returns the IDs repaired this
// tick.
func (o *Orchestrator) ReconcileTick(now time.Time) []string {
	o.m.reconcileTicks.Inc()
	var reconciled []string
	for _, inst := range o.prov.List() {
		o.mu.Lock()
		want, ok := o.persisted[inst.ID]
		o.mu.Unlock()
		if !ok {
			continue
		}
		if tunableInSync(inst.Replica.Master(), want) && !anyNodeDown(inst) {
			o.mu.Lock()
			delete(o.driftSince, inst.ID)
			delete(o.repairFails, inst.ID)
			delete(o.retryAt, inst.ID)
			o.mu.Unlock()
			continue
		}
		o.mu.Lock()
		since, seen := o.driftSince[inst.ID]
		if !seen {
			o.driftSince[inst.ID] = now
			o.mu.Unlock()
			continue
		}
		timeout := o.WatcherTimeout
		retryAt, backingOff := o.retryAt[inst.ID]
		fails := o.repairFails[inst.ID]
		o.mu.Unlock()
		if now.Sub(since) < timeout {
			continue
		}
		if backingOff && now.Before(retryAt) {
			continue
		}
		method := simdb.ApplyReload
		if fails >= o.EscalateAfter {
			// Reloads keep failing: restart every node onto the persisted
			// config instead — the heavyweight repair of last resort.
			method = simdb.ApplyRestart
			o.mu.Lock()
			o.escalations++
			o.mu.Unlock()
			o.m.escalations.Inc()
		}
		if err := o.repairDrift(inst, want, method); err != nil {
			// Repair failed; back off exponentially, up to 16×, before
			// trying again. The shift is capped before it is taken, so a
			// long failure streak cannot overflow it.
			o.mu.Lock()
			o.repairFails[inst.ID]++
			backoff := o.RetryBackoff << min(o.repairFails[inst.ID]-1, 4)
			o.retryAt[inst.ID] = now.Add(backoff)
			o.mu.Unlock()
			continue
		}
		o.mu.Lock()
		delete(o.driftSince, inst.ID)
		delete(o.repairFails, inst.ID)
		delete(o.retryAt, inst.ID)
		o.reconciliations++
		o.mu.Unlock()
		o.m.reconciliations.Inc()
		reconciled = append(reconciled, inst.ID)
	}
	o.mu.Lock()
	o.m.drifting.Set(float64(len(o.driftSince)))
	o.mu.Unlock()
	return reconciled
}

// repairDrift forces want onto every node of inst, restarting down nodes
// first, with up to ReloadRetries attempts per node. Retries beyond the
// first attempt are counted as orchestrator retries.
func (o *Orchestrator) repairDrift(inst *cluster.Instance, want knobs.Config, method simdb.ApplyMethod) error {
	attempts := o.ReloadRetries
	if attempts < 1 {
		attempts = 1
	}
	var errs []error
	for i, node := range inst.Replica.Nodes() {
		var last error
		for a := 0; a < attempts; a++ {
			if a > 0 {
				o.mu.Lock()
				o.retries++
				o.mu.Unlock()
				o.m.retriesTotal.Inc()
			}
			last = o.repairNode(node, want, method)
			if last == nil {
				break
			}
		}
		if last != nil {
			errs = append(errs, fmt.Errorf("orchestrator: reconcile node %d of %s: %w", i, inst.ID, last))
		}
	}
	return errors.Join(errs...)
}

// repairNode is one repair attempt: revive the process if it is down,
// then apply the persisted config.
func (o *Orchestrator) repairNode(node *simdb.Engine, want knobs.Config, method simdb.ApplyMethod) error {
	if node.Down() {
		if err := node.Restart(); err != nil {
			return err
		}
	}
	return node.ApplyConfig(want, method)
}

// anyNodeDown reports whether any node of the instance is down.
func anyNodeDown(inst *cluster.Instance) bool {
	if inst.Replica.Master().Down() {
		return true
	}
	for _, node := range inst.Replica.Slaves() {
		if node.Down() {
			return true
		}
	}
	return false
}

// tunableInSync reports whether eng's active config matches want on
// every knob applicable without restart (restart knobs legitimately
// differ until the next maintenance window). A knob must be present in
// both or in neither. It reads each knob through Engine.Knob and the
// catalogue's own name list, so a tick over in-sync instances copies
// no config.
func tunableInSync(eng *simdb.Engine, want knobs.Config) bool {
	for _, n := range eng.KnobCatalog().Tunables() {
		av, aok := eng.Knob(n)
		bv, bok := want[n]
		if aok != bok || av != bv {
			return false
		}
	}
	return true
}
