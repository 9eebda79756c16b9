package tde

import (
	"encoding/json"
	"fmt"
	"time"

	"autodbaas/internal/entropy"
	"autodbaas/internal/knobs"
	"autodbaas/internal/mdp"
	"autodbaas/internal/metrics"
	"autodbaas/internal/prng"
	"autodbaas/internal/sampling"
	"autodbaas/internal/sqlparse"
)

// State is the TDE's serializable mutable state: the detection RNG
// position (shared with the reservoir), the entropy filter counters,
// the class histogram of ingested statements, the reservoir contents, every
// automaton's learned value/probabilities, the last metric snapshot the
// delta detectors diff against, and the throttle counters. The engine
// binding, catalog and baseline are construction parameters and come
// from the rebuild.
type State struct {
	RNG        prng.State                      `json:"rng"`
	Filter     entropy.FilterState             `json:"filter"`
	Classes    [sqlparse.NumClasses]int        `json:"classes"`
	Reservoir  sampling.ReservoirState[string] `json:"reservoir"`
	Automata   []mdp.AutomatonState            `json:"automata,omitempty"`
	LastSnap   metrics.Snapshot                `json:"last_snap,omitempty"`
	LastSnapAt time.Time                       `json:"last_snap_at"`
	Throttles  map[knobs.Class]int             `json:"throttles,omitempty"`
	Upgrades   int                             `json:"upgrades"`
	Ticks      int                             `json:"ticks"`
}

// CheckpointState captures the TDE's mutable state.
func (t *TDE) CheckpointState() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := State{
		RNG:        t.rngSrc.State(),
		Filter:     t.filter.CheckpointState(),
		Classes:    t.classes,
		Reservoir:  t.reservoir.CheckpointState(),
		LastSnap:   t.lastSnap.Clone(),
		LastSnapAt: t.lastSnapAt,
		Throttles:  make(map[knobs.Class]int, len(t.throttles)),
		Upgrades:   t.upgrades,
		Ticks:      t.ticks,
	}
	for _, a := range t.automata {
		st.Automata = append(st.Automata, a.CheckpointState())
	}
	for c, n := range t.throttles {
		st.Throttles[c] = n
	}
	return st
}

// RestoreCheckpointState overwrites the TDE's mutable state. The TDE
// must have been built against the same engine configuration (its
// automata set must match the snapshot's knob-for-knob).
func (t *TDE) RestoreCheckpointState(st State) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	byKnob := make(map[string]mdp.AutomatonState, len(st.Automata))
	for _, as := range st.Automata {
		byKnob[as.Knob] = as
	}
	if len(byKnob) != len(t.automata) {
		return fmt.Errorf("tde: snapshot has %d automata, engine built %d", len(byKnob), len(t.automata))
	}
	for _, a := range t.automata {
		as, ok := byKnob[a.Knob]
		if !ok {
			return fmt.Errorf("tde: snapshot missing automaton state for knob %q", a.Knob)
		}
		if err := a.RestoreCheckpointState(as); err != nil {
			return err
		}
	}
	if err := t.reservoir.RestoreCheckpointState(st.Reservoir); err != nil {
		return err
	}
	t.rngSrc.Restore(st.RNG)
	t.filter.RestoreCheckpointState(st.Filter)
	t.classes = st.Classes
	t.lastSnap = st.LastSnap.Clone()
	t.lastSnapAt = st.LastSnapAt
	t.throttles = make(map[knobs.Class]int, len(st.Throttles))
	for c, n := range st.Throttles {
		t.throttles[c] = n
	}
	t.upgrades = st.Upgrades
	t.ticks = st.Ticks
	return nil
}

// legacyTemplate is one entry of the per-template table a snapshot held
// while the TDE kept one: the template and how often it was ingested.
type legacyTemplate struct {
	Template struct{ Class sqlparse.Class }
	Count    int
}

// UnmarshalJSON decodes a State. A snapshot written while the TDE kept a
// per-template table holds that table instead of Classes; each entry's
// count is added to its class. A negative count, or a class sqlparse
// does not define, is rejected.
func (st *State) UnmarshalJSON(data []byte) error {
	type plain State
	v := struct {
		*plain
		Templates map[string]legacyTemplate `json:"templates"`
	}{plain: (*plain)(st)}
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	for id, lt := range v.Templates {
		cls := lt.Template.Class
		if cls < 0 || int(cls) >= sqlparse.NumClasses || lt.Count < 0 {
			return fmt.Errorf("tde: template %s has class %d and count %d", id, cls, lt.Count)
		}
		st.Classes[cls] += lt.Count
	}
	for cls, n := range st.Classes {
		if n < 0 {
			return fmt.Errorf("tde: negative count %d for class %s", n, sqlparse.Class(cls))
		}
	}
	return nil
}
