// Package tuner defines the tuner-facing contract of AutoDBaaS: the
// training-sample schema stored in the central data repository, the
// recommendation request/response types exchanged with the config
// director, and the Tuner interface implemented by the BO-style
// (internal/tuner/bo) and RL-style (internal/tuner/rl) engines.
package tuner

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"autodbaas/internal/knobs"
	"autodbaas/internal/metrics"
)

// Sample is one training observation: the delta metrics observed while a
// workload executed under a configuration, plus the objective (the
// paper's X_{m,i,j} matrices, flattened). Config and Metrics are
// vectors in the order of the engine's knob and metric catalogues; the
// JSON form keeps them as name-keyed maps.
type Sample struct {
	WorkloadID string
	Engine     knobs.Engine
	Config     knobs.Vector
	Metrics    metrics.Vector
	// Objective is the tuning target (throughput in qps).
	Objective float64
	// Quality marks whether the sample was captured while the database
	// actually needed tuning (TDE-gated). Low-quality samples are the
	// paper's model-corruption vector.
	Quality bool
	// Window is the observation period the delta metrics cover, needed
	// to turn counter deltas into rates (e.g. checkpoints/second for the
	// bgwriter baseline).
	Window time.Duration
	At     time.Time
}

// sampleJSON is Sample's wire form, with name-keyed maps.
type sampleJSON struct {
	WorkloadID string           `json:"workload_id"`
	Engine     knobs.Engine     `json:"engine"`
	Config     knobs.Config     `json:"config"`
	Metrics    metrics.Snapshot `json:"metrics"`
	Objective  float64          `json:"objective"`
	Quality    bool             `json:"quality"`
	Window     time.Duration    `json:"window"`
	At         time.Time        `json:"at"`
}

// catalogues returns the engine's knob and metric catalogues.
func catalogues(e knobs.Engine) (*knobs.Catalog, *metrics.Catalog, error) {
	kc, err := knobs.CatalogFor(e)
	if err != nil {
		return nil, nil, err
	}
	mc, err := metrics.CatalogFor(string(e))
	if err != nil {
		return nil, nil, err
	}
	return kc, mc, nil
}

// Maps returns the sample's config and metrics as maps (nil for a nil
// vector), named by its engine's catalogues.
func (s *Sample) Maps() (knobs.Config, metrics.Snapshot, error) {
	if s.Config.Vals == nil && s.Metrics.Vals == nil {
		return nil, nil, nil
	}
	kc, mc, err := catalogues(s.Engine)
	if err != nil {
		return nil, nil, err
	}
	return kc.Config(s.Config), mc.Snapshot(s.Metrics), nil
}

// SetMaps stores cfg and m as the sample's vectors. It fails, naming
// it, on a knob or metric the engine's catalogues lack, and on an
// engine without catalogues.
func (s *Sample) SetMaps(cfg knobs.Config, m metrics.Snapshot) error {
	kc, mc, err := catalogues(s.Engine)
	if err != nil {
		return fmt.Errorf("tuner: sample: %w", err)
	}
	cv, err := kc.FromConfig(cfg)
	if err != nil {
		return fmt.Errorf("tuner: sample config: %w", err)
	}
	mv, err := mc.FromSnapshot(m)
	if err != nil {
		return fmt.Errorf("tuner: sample metrics: %w", err)
	}
	s.Config, s.Metrics = cv, mv
	return nil
}

// MarshalJSON writes the sample with its config and metrics as maps,
// the bytes the map-typed fields gave.
func (s Sample) MarshalJSON() ([]byte, error) {
	cfg, m, err := s.Maps()
	if err != nil {
		return nil, err
	}
	return json.Marshal(sampleJSON{
		WorkloadID: s.WorkloadID, Engine: s.Engine, Config: cfg, Metrics: m,
		Objective: s.Objective, Quality: s.Quality, Window: s.Window, At: s.At,
	})
}

// UnmarshalJSON reads MarshalJSON's form, rejecting what SetMaps does.
func (s *Sample) UnmarshalJSON(b []byte) error {
	var w sampleJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	out := Sample{
		WorkloadID: w.WorkloadID, Engine: w.Engine,
		Objective: w.Objective, Quality: w.Quality, Window: w.Window, At: w.At,
	}
	if err := out.SetMaps(w.Config, w.Metrics); err != nil {
		return err
	}
	*s = out
	return nil
}

// Request asks a tuner for a new configuration.
type Request struct {
	InstanceID string           `json:"instance_id"`
	Engine     knobs.Engine     `json:"engine"`
	WorkloadID string           `json:"workload_id"`
	Metrics    metrics.Snapshot `json:"metrics"`
	Current    knobs.Config     `json:"current"`
	// MemoryBytes is the instance memory, for budget-feasible configs.
	MemoryBytes float64 `json:"memory_bytes"`
	// ThrottleClass optionally narrows the recommendation to one knob
	// class (set when a TDE throttle triggered the request).
	ThrottleClass *knobs.Class `json:"throttle_class,omitempty"`
	// Constraint, when set, restricts the suggestion to the safety
	// gate's trust region and steers it away from already-vetoed
	// configs. Tuners that cannot honor it may ignore it — the gate
	// re-checks every candidate before apply.
	Constraint *Constraint `json:"constraint,omitempty"`
}

// Constraint is the safe-tuning suggestion constraint (arXiv:2203.14473):
// candidates should stay within Radius of Center in normalized knob
// space, and must avoid the Exclude configs (vetoed earlier in the
// same tuning round).
type Constraint struct {
	// Center is the config the trust region is centered on — the
	// instance's best known-good configuration. Nil means
	// exclusion-only (no distance bound).
	Center knobs.Config `json:"center,omitempty"`
	// Radius is the normalized knob-space distance bound (each knob
	// mapped to [0,1], Euclidean distance scaled by sqrt(dims)).
	Radius float64 `json:"radius,omitempty"`
	// Exclude lists configs the gate already vetoed this round; a
	// resample returning one of them would be vetoed again.
	Exclude []knobs.Config `json:"exclude,omitempty"`
}

// Recommendation is a tuner's answer.
type Recommendation struct {
	Config knobs.Config `json:"config"`
	// Source describes what the recommendation was based on
	// (e.g. "gpr:mapped=tpcc:n=420").
	Source string `json:"source"`
	// TrainedOn is the number of samples behind the model.
	TrainedOn int `json:"trained_on"`
	// Cost is the wall-clock cost of producing the recommendation — the
	// paper's "recommendation-cost" scalability metric.
	Cost time.Duration `json:"cost"`
}

// Tuner is a tuning engine.
type Tuner interface {
	// Name identifies the tuner ("ottertune-bo", "cdbtune-rl").
	Name() string
	// Observe ingests one training sample.
	Observe(Sample) error
	// Recommend produces a configuration for the request.
	Recommend(Request) (Recommendation, error)
}

// Unwrap strips decorators (fault injection, timing) that expose the
// tuner they wrap through an Unwrap method, until the concrete tuner
// surfaces.
func Unwrap(t Tuner) Tuner {
	for {
		u, ok := t.(interface{ Unwrap() Tuner })
		if !ok {
			return t
		}
		t = u.Unwrap()
	}
}

// ErrNotTrained is returned by Recommend before any usable training.
var ErrNotTrained = errors.New("tuner: not trained yet")

// Store is an in-memory sample store grouped by workload — the schema of
// the central data repository. It is safe for concurrent use. A stored
// sample, its vectors included, is never modified, so View can hand out
// pointers to it and copies of it may share its vectors.
//
// Each workload keeps its samples in chunks of chunkLen that are
// allocated full size and never move: growth copies no sample and
// leaves no old array behind, a View pointer stays valid for the life
// of the store, and a workload's slack is at most one chunk.
type Store struct {
	mu      sync.RWMutex
	samples map[string]*series
	order   []string
	n       int
	// unordered marks workloads with a sample added before an earlier
	// one's At; View caps only workloads absent from it.
	unordered map[string]bool
}

// chunkLen is the number of samples in one chunk: 15 samples of 152 B
// fill the allocator's 2,304-byte size class to within 24 B, where 16
// would waste 256 B of a 2,688-byte one.
const chunkLen = 15

// series is one workload's samples, in Add order.
type series struct {
	chunks []*[chunkLen]Sample
	n      int
}

// at returns the i-th sample.
func (w *series) at(i int) *Sample { return &w.chunks[i/chunkLen][i%chunkLen] }

// add appends a sample, starting a chunk when the last one is full.
func (w *series) add(sm Sample) {
	if w.n%chunkLen == 0 {
		w.chunks = append(w.chunks, new([chunkLen]Sample))
	}
	*w.at(w.n) = sm
	w.n++
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{samples: make(map[string]*series), unordered: make(map[string]bool)}
}

// Add appends a sample to its workload.
func (s *Store) Add(sm Sample) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.addLocked(sm)
}

func (s *Store) addLocked(sm Sample) {
	w, ok := s.samples[sm.WorkloadID]
	if !ok {
		w = &series{}
		s.samples[sm.WorkloadID] = w
		s.order = append(s.order, sm.WorkloadID)
	}
	if w.n > 0 && sm.At.Before(w.at(w.n-1).At) {
		s.unordered[sm.WorkloadID] = true
	}
	w.add(sm)
	s.n++
}

// Absorb moves every sample of from into s, as if each were Added in
// from's store order, under s's lock: a reader of s sees all of them or
// none. A workload s lacks takes from's chunks as they are; from must
// not be used afterwards.
func (s *Store) Absorb(from *Store) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range from.order {
		w := from.samples[id]
		if _, ok := s.samples[id]; ok {
			for i := 0; i < w.n; i++ {
				s.addLocked(*w.at(i))
			}
			continue
		}
		s.samples[id] = w
		s.order = append(s.order, id)
		s.n += w.n
		if from.unordered[id] {
			s.unordered[id] = true
		}
	}
}

// View appends to dst pointers to the workload's samples of engine, in
// store order, and returns the extended slice; it copies no sample.
// With max > 0 it may stop at the workload's last max samples of
// engine: it does so only when they were added in At order, so that no
// earlier one can be among the max latest (by At, ties by position) of
// any sample set this view is part of. The pointers stay valid and
// point at the same samples while later Adds append.
func (s *Store) View(dst []*Sample, workloadID string, engine knobs.Engine, max int) []*Sample {
	s.mu.RLock()
	defer s.mu.RUnlock()
	w := s.samples[workloadID]
	if w == nil {
		return dst
	}
	if max <= 0 || s.unordered[workloadID] {
		max = w.n
	}
	start, n := w.n, 0
	for start > 0 && n < max {
		start--
		if w.at(start).Engine == engine {
			n++
		}
	}
	for i := start; i < w.n; i++ {
		if sm := w.at(i); sm.Engine == engine {
			dst = append(dst, sm)
		}
	}
	return dst
}

// Workloads returns workload IDs in first-seen order.
func (s *Store) Workloads() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]string(nil), s.order...)
}

// Samples returns a copy of the samples for a workload.
func (s *Store) Samples(workloadID string) []Sample {
	s.mu.RLock()
	defer s.mu.RUnlock()
	w := s.samples[workloadID]
	if w == nil {
		return []Sample{}
	}
	out := make([]Sample, 0, w.n)
	for i := 0; i < w.n; i++ {
		out = append(out, *w.at(i))
	}
	return out
}

// Range calls fn on every sample in store order (workloads in
// first-seen order, each workload's samples in Add order) under the read
// lock, so fn must not call back into the store. fn must not modify the
// sample and must not keep the pointer past its return.
func (s *Store) Range(fn func(*Sample)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, id := range s.order {
		w := s.samples[id]
		for i := 0; i < w.n; i++ {
			fn(w.at(i))
		}
	}
}

// Len returns the total sample count.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.n
}
