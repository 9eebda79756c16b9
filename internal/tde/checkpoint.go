package tde

import (
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

// State is the TDE's mutable state: the detection RNG position (shared
// with the reservoir), the entropy filter counters, the class histogram
// of ingested statements, the reservoir contents, every automaton's
// learned value/probabilities (in the TDE's automaton order), the last
// metric snapshot the next tick's deltas (the bgwriter detector's and
// the agent's) diff against, and the throttle counters. The engine
// binding, catalog and baseline are construction parameters and come
// from the rebuild.
type State struct {
	RNG        prng.State
	Filter     entropy.FilterState
	Classes    [sqlparse.NumClasses]int
	Reservoir  sampling.ReservoirState[string]
	Automata   []mdp.AutomatonState
	LastSnap   metrics.Snapshot
	LastSnapAt time.Time
	Throttles  map[knobs.Class]int
	Upgrades   int
	Ticks      int
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

// CheckState returns why st cannot restore into this TDE, or nil: its
// automata are not this TDE's in order, or hold a probability outside
// [0, 1], or its reservoir does not hold min(seen, capacity) items. It
// reads only construction parameters, so it takes no lock.
func (t *TDE) CheckState(st State) error {
	if len(st.Automata) != len(t.automata) {
		return fmt.Errorf("tde: snapshot has %d automata, engine built %d", len(st.Automata), len(t.automata))
	}
	for i, as := range st.Automata {
		if p := as.Probs; as.Knob != t.automata[i].Knob || !(p[0] >= 0 && p[0] <= 1 && p[1] >= 0 && p[1] <= 1) {
			return fmt.Errorf("tde: snapshot automaton %d is for knob %q with probabilities %v, engine built %q", i, as.Knob, p, t.automata[i].Knob)
		}
	}
	res, k := st.Reservoir, t.reservoir.Cap()
	if res.Seen < 0 || len(res.Items) > k || len(res.Items) < min(res.Seen, k) {
		return fmt.Errorf("tde: reservoir holds %d items after %d offers, capacity %d", len(res.Items), res.Seen, k)
	}
	return nil
}

// RestoreCheckpointState overwrites the TDE's mutable state, or returns
// CheckState's error and leaves it untouched. The TDE must have been
// built against the same engine configuration.
func (t *TDE) RestoreCheckpointState(st State) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.CheckState(st); err != nil {
		return err
	}
	for i, a := range t.automata {
		a.RestoreCheckpointState(st.Automata[i])
	}
	t.reservoir.RestoreCheckpointState(st.Reservoir)
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
