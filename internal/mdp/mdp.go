// Package mdp implements the learning-automata Markov decision process
// the TDE uses on async/planner-estimate knobs (paper §3.3): for each
// knob, an automaton holds a probability distribution over the actions
// {increase, decrease}; it perturbs the knob by a unit step, observes
// the planner's cost/benefit response, and applies a linear
// reward-penalty update to the action probabilities. Profitable steps
// both reinforce the action and raise a throttle (the tuner is asked
// for a recommendation), because local profit signals a mis-set knob.
package mdp

import (
	"errors"
	"fmt"
	"math/rand"
)

// Action is a knob perturbation direction.
type Action int

// Actions.
const (
	Increase Action = iota
	Decrease
)

// String implements fmt.Stringer.
func (a Action) String() string {
	if a == Increase {
		return "increase"
	}
	return "decrease"
}

// Automaton is a two-action learning automaton bound to one knob.
type Automaton struct {
	Knob string
	// Step is the unit step applied per action (defined statically, §3.3).
	Step float64
	// Min, Max bound the knob value.
	Min, Max float64
	// LearnRate λ of the linear reward-penalty scheme (default 0.1).
	LearnRate float64

	value float64
	probs [2]float64 // P(Increase), P(Decrease)
}

// NewAutomaton returns an automaton starting at value with uniform
// action probabilities.
func NewAutomaton(knob string, value, step, min, max float64) (*Automaton, error) {
	if step <= 0 {
		return nil, errors.New("mdp: step must be positive")
	}
	if min >= max {
		return nil, fmt.Errorf("mdp: bad bounds [%g, %g]", min, max)
	}
	if value < min || value > max {
		return nil, fmt.Errorf("mdp: value %g outside [%g, %g]", value, min, max)
	}
	return &Automaton{
		Knob: knob, Step: step, Min: min, Max: max,
		LearnRate: 0.1,
		value:     value,
		probs:     [2]float64{0.5, 0.5},
	}, nil
}

// Value returns the automaton's current knob value.
func (a *Automaton) Value() float64 { return a.value }

// SetValue re-syncs the automaton to an externally applied knob value
// (e.g. after a tuner recommendation lands), clamping into bounds.
func (a *Automaton) SetValue(v float64) error {
	if v != v { // NaN
		return errors.New("mdp: NaN value")
	}
	if v < a.Min {
		v = a.Min
	}
	if v > a.Max {
		v = a.Max
	}
	a.value = v
	return nil
}

// Probabilities returns (P(increase), P(decrease)).
func (a *Automaton) Probabilities() (float64, float64) { return a.probs[0], a.probs[1] }

// AutomatonState is the automaton's serializable mutable state; the
// knob binding and step geometry are construction parameters.
type AutomatonState struct {
	Knob  string     `json:"knob"`
	Value float64    `json:"value"`
	Probs [2]float64 `json:"probs"`
}

// CheckpointState captures the automaton's learned state.
func (a *Automaton) CheckpointState() AutomatonState {
	return AutomatonState{Knob: a.Knob, Value: a.value, Probs: a.probs}
}

// RestoreCheckpointState overwrites the automaton's learned state. The
// caller has checked that the state belongs to this automaton's knob.
func (a *Automaton) RestoreCheckpointState(st AutomatonState) {
	a.value = st.Value
	a.probs = st.Probs
}

// Choose samples an action from the current distribution.
func (a *Automaton) Choose(rng *rand.Rand) Action {
	if rng.Float64() < a.probs[0] {
		return Increase
	}
	return Decrease
}

// Candidate returns the knob value the action would produce (clamped).
func (a *Automaton) Candidate(act Action) float64 {
	v := a.value
	if act == Increase {
		v += a.Step
	} else {
		v -= a.Step
	}
	if v < a.Min {
		v = a.Min
	}
	if v > a.Max {
		v = a.Max
	}
	return v
}

// Commit moves the automaton to the candidate value of act.
func (a *Automaton) Commit(act Action) { a.value = a.Candidate(act) }

// Feedback applies the linear reward-penalty update for act: a rewarded
// action gains probability mass, a penalized one loses it.
func (a *Automaton) Feedback(act Action, rewarded bool) {
	lr := a.LearnRate
	if lr <= 0 {
		lr = 0.1
	}
	i := int(act)
	j := 1 - i
	if rewarded {
		a.probs[i] += lr * (1 - a.probs[i])
		a.probs[j] = 1 - a.probs[i]
	} else {
		a.probs[i] -= lr * a.probs[i]
		a.probs[j] = 1 - a.probs[i]
	}
	// Keep a minimum exploration probability.
	const eps = 0.02
	for k := range a.probs {
		if a.probs[k] < eps {
			a.probs[k] = eps
			a.probs[1-k] = 1 - eps
		}
	}
}
