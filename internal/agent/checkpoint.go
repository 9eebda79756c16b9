package agent

import (
	"time"

	"autodbaas/internal/tde"
)

// State is the agent's mutable state: the tick/periodic gates, the
// upload counters, and the embedded TDE's state, which holds the metric
// snapshot the next upload diffs against. Sinks, the instance binding
// and the workload generator are construction parameters.
type State struct {
	LastTick     time.Time
	LastPeriodic time.Time
	Uploaded     int
	Suppressed   int
	TDE          tde.State
}

// CheckpointState captures the agent's mutable state. Agents are stepped
// from one goroutine at a time (the fleet scheduler's contract), so no
// agent-level lock exists or is needed here.
func (a *Agent) CheckpointState() State {
	return State{
		LastTick:     a.lastTick,
		LastPeriodic: a.lastPeriodic,
		Uploaded:     a.uploaded,
		Suppressed:   a.suppressed,
		TDE:          a.tde.CheckpointState(),
	}
}

// RestoreCheckpointState overwrites the agent's mutable state.
func (a *Agent) RestoreCheckpointState(st State) error {
	if err := a.tde.RestoreCheckpointState(st.TDE); err != nil {
		return err
	}
	a.lastTick = st.LastTick
	a.lastPeriodic = st.LastPeriodic
	a.uploaded = st.Uploaded
	a.suppressed = st.Suppressed
	return nil
}
