package orchestrator

import (
	"time"

	"autodbaas/internal/knobs"
)

// State is the orchestrator's serializable mutable state: the persisted
// config truth (whose keys are the managed instances) and the
// reconciler's drift/backoff bookkeeping. The provisioner topology and
// the watcher tunables are construction parameters.
type State struct {
	Persisted       map[string]knobs.Config `json:"persisted,omitempty"`
	DriftSince      map[string]time.Time    `json:"drift_since,omitempty"`
	RepairFails     map[string]int          `json:"repair_fails,omitempty"`
	RetryAt         map[string]time.Time    `json:"retry_at,omitempty"`
	Reconciliations int                     `json:"reconciliations"`
	Retries         int                     `json:"retries"`
	Escalations     int                     `json:"escalations"`
}

// CheckpointState captures the orchestrator's mutable state.
func (o *Orchestrator) CheckpointState() State {
	o.mu.Lock()
	defer o.mu.Unlock()
	st := State{
		Persisted:       make(map[string]knobs.Config, len(o.persisted)),
		DriftSince:      make(map[string]time.Time, len(o.driftSince)),
		RepairFails:     make(map[string]int, len(o.repairFails)),
		RetryAt:         make(map[string]time.Time, len(o.retryAt)),
		Reconciliations: o.reconciliations,
		Retries:         o.retries,
		Escalations:     o.escalations,
	}
	for id, cfg := range o.persisted {
		st.Persisted[id] = cfg.Clone()
	}
	for id, t := range o.driftSince {
		st.DriftSince[id] = t
	}
	for id, n := range o.repairFails {
		st.RepairFails[id] = n
	}
	for id, t := range o.retryAt {
		st.RetryAt[id] = t
	}
	return st
}

// RestoreCheckpointState overwrites the orchestrator's mutable state.
func (o *Orchestrator) RestoreCheckpointState(st State) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.persisted = make(map[string]knobs.Config, len(st.Persisted))
	for id, cfg := range st.Persisted {
		o.persisted[id] = cfg.Clone()
	}
	o.driftSince = make(map[string]time.Time, len(st.DriftSince))
	for id, t := range st.DriftSince {
		o.driftSince[id] = t
	}
	o.repairFails = make(map[string]int, len(st.RepairFails))
	for id, n := range st.RepairFails {
		o.repairFails[id] = n
	}
	o.retryAt = make(map[string]time.Time, len(st.RetryAt))
	for id, t := range st.RetryAt {
		o.retryAt[id] = t
	}
	o.reconciliations = st.Reconciliations
	o.retries = st.Retries
	o.escalations = st.Escalations
	return nil
}
