package monitor

import (
	"encoding/json"
	"fmt"
	"time"
)

// State is an agent's snapshot: its sample count and the timestamp of
// the last accepted sample. The retention bound is a construction
// parameter.
type State struct {
	Count int       `json:"count"`
	Last  time.Time `json:"last"`
}

// UnmarshalJSON decodes a State. A snapshot written while the agent
// kept point series holds them under their names instead; the
// disk_latency_ms series' length and last timestamp carry over. A
// negative count is rejected.
func (st *State) UnmarshalJSON(data []byte) error {
	var v struct {
		Count  int                      `json:"count"`
		Last   time.Time                `json:"last"`
		Points []struct{ At time.Time } `json:"disk_latency_ms"`
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	st.Count, st.Last = v.Count, v.Last
	if n := len(v.Points); n > 0 {
		st.Count, st.Last = n, v.Points[n-1].At
	}
	if st.Count < 0 {
		return fmt.Errorf("monitor: negative sample count %d", st.Count)
	}
	return nil
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
