package simdb

import (
	"errors"
	"fmt"

	"autodbaas/internal/knobs"
)

// ReplicaSet is a master plus zero or more slaves forming one
// high-availability database service instance. The Data Federation
// Agent applies configuration to slaves first; a slave crash rejects
// the recommendation before the master is ever touched (paper §4).
type ReplicaSet struct {
	master *Engine
	slaves []*Engine
}

// NewReplicaSet builds a service instance of 1+slaves engines with
// identical options (seeds are offset per node for divergent noise).
// The slaves are replicas: they price every window as the master does
// but keep no query log and no template profiles.
func NewReplicaSet(o Options, slaves int) (*ReplicaSet, error) {
	if slaves < 0 {
		return nil, errors.New("simdb: negative slave count")
	}
	master, err := NewEngine(o)
	if err != nil {
		return nil, err
	}
	rs := &ReplicaSet{master: master}
	for i := 0; i < slaves; i++ {
		so := o
		so.Seed = o.Seed + int64(i) + 1
		s, err := newEngine(so, true)
		if err != nil {
			return nil, err
		}
		rs.slaves = append(rs.slaves, s)
	}
	return rs, nil
}

// Master returns the master engine.
func (rs *ReplicaSet) Master() *Engine { return rs.master }

// Slaves returns the slave engines.
func (rs *ReplicaSet) Slaves() []*Engine { return rs.slaves }

// Nodes returns all engines, master first.
func (rs *ReplicaSet) Nodes() []*Engine {
	return append([]*Engine{rs.master}, rs.slaves...)
}

// ApplyAll applies cfg slave-first. If any slave crashes, the config is
// rejected: crashed slaves are restarted with their previous config and
// the master is left untouched. Only after every slave has accepted the
// config is it applied to the master.
//
// Rollback failures are part of the returned error: a failed rollback
// leaves master and slaves on divergent configurations, and the caller
// (ultimately the reconciler) must know the replica set is inconsistent
// rather than merely "the recommendation was rejected".
func (rs *ReplicaSet) ApplyAll(cfg knobs.Config, method ApplyMethod) error {
	applied := make([]*Engine, 0, len(rs.slaves))
	for i, s := range rs.slaves {
		if err := s.ApplyConfig(cfg, method); err != nil {
			// Roll back: restart the crashed slave and re-apply the old
			// config to slaves that already accepted the new one.
			var rbErrs []error
			if s.Down() {
				if rerr := s.Restart(); rerr != nil {
					rbErrs = append(rbErrs, fmt.Errorf("simdb: rollback restart of slave %d: %w", i, rerr))
				}
			}
			rbErrs = append(rbErrs, rs.rollback(applied, method))
			return errors.Join(fmt.Errorf("simdb: slave %d rejected config: %w", i, err), errors.Join(rbErrs...))
		}
		applied = append(applied, s)
	}
	if err := rs.master.ApplyConfig(cfg, method); err != nil {
		return errors.Join(fmt.Errorf("simdb: master rejected config: %w", err), rs.rollback(applied, method))
	}
	return nil
}

// rollback re-applies the master's (pre-apply) config to slaves that
// already accepted a rejected recommendation, surfacing every failure.
func (rs *ReplicaSet) rollback(applied []*Engine, method ApplyMethod) error {
	prev := rs.master.Config()
	var errs []error
	for i, a := range applied {
		if err := a.ApplyConfig(prev, method); err != nil {
			errs = append(errs, fmt.Errorf("simdb: rollback of slave %d failed, replica configs diverged: %w", i, err))
		}
	}
	return errors.Join(errs...)
}
