package monitor

import "time"

// State is an agent's snapshot: its sample count and the timestamp of
// the last accepted sample. The retention bound is a construction
// parameter.
type State struct {
	Count int
	Last  time.Time
}

// CheckpointState captures the agent's sample count.
func (a *Agent) CheckpointState() State {
	a.s.mu.Lock()
	defer a.s.mu.Unlock()
	return State{Count: a.s.n, Last: a.s.last}
}

// RestoreCheckpointState replaces the agent's sample count.
func (a *Agent) RestoreCheckpointState(st State) {
	a.s.mu.Lock()
	defer a.s.mu.Unlock()
	a.s.n, a.s.last = st.Count, st.Last
}
