package bo

import "autodbaas/internal/prng"

// State is the BO tuner's serializable mutable state: the incrementally
// maintained per-workload metric means and the acquisition RNG
// position. The samples are the central repository's, saved with its
// store, so they are not here. Neither is the kept fit: it is a pure
// function of the store, the means and a request, so a restored tuner,
// which starts without one, refits to the same model. Options and
// catalogs are construction parameters; the rebuilt tuner must have
// been created with identical Options.
type State struct {
	RNG        prng.State           `json:"rng"`
	MeanSums   map[string][]float64 `json:"mean_sums,omitempty"`
	MeanCounts map[string]int       `json:"mean_counts,omitempty"`
	MeanOrder  []string             `json:"mean_order,omitempty"`
}

// CheckpointState captures the tuner's mutable state.
func (t *Tuner) CheckpointState() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := State{
		RNG:        t.rngSrc.State(),
		MeanSums:   make(map[string][]float64, len(t.meanSums)),
		MeanCounts: make(map[string]int, len(t.meanCounts)),
		MeanOrder:  append([]string(nil), t.meanOrder...),
	}
	for id, sum := range t.meanSums {
		st.MeanSums[id] = append([]float64(nil), sum...)
	}
	for id, n := range t.meanCounts {
		st.MeanCounts[id] = n
	}
	return st
}

// RestoreCheckpointState overwrites the tuner's mutable state. The tuner
// must have been constructed with the same Options as the one that
// produced the snapshot.
func (t *Tuner) RestoreCheckpointState(st State) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rngSrc.Restore(st.RNG)
	t.meanSums = make(map[string][]float64, len(st.MeanSums))
	for id, sum := range st.MeanSums {
		t.meanSums[id] = append([]float64(nil), sum...)
	}
	t.meanCounts = make(map[string]int, len(st.MeanCounts))
	t.delivered = 0
	for id, n := range st.MeanCounts {
		t.meanCounts[id] = n
		t.delivered += n
	}
	t.meanOrder = append([]string(nil), st.MeanOrder...)
	t.trainingSamples.Set(float64(t.delivered))
	t.fit.key.ok = false
	return nil
}
