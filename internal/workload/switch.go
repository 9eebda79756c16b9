package workload

import (
	"math/rand"
	"sync"
	"time"
)

// Switch wraps two generators and flips from Before to After on demand —
// the building block for workload-shift experiments (Table 1 / Fig. 14),
// modelling an application whose query mix changes abruptly.
type Switch struct {
	Before, After Generator

	mu      sync.Mutex
	flipped bool
}

// NewSwitch returns a Switch starting on before.
func NewSwitch(before, after Generator) *Switch {
	return &Switch{Before: before, After: after}
}

// Flip switches to the After workload (idempotent).
func (s *Switch) Flip() {
	s.mu.Lock()
	s.flipped = true
	s.mu.Unlock()
}

// Flipped reports whether the shift has happened.
func (s *Switch) Flipped() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flipped
}

func (s *Switch) current() Generator {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.flipped {
		return s.After
	}
	return s.Before
}

// Name implements Generator (reports the active workload).
func (s *Switch) Name() string { return s.current().Name() }

// DBSizeBytes implements Generator: the larger of the two datasets (both
// are loaded for a shift experiment).
func (s *Switch) DBSizeBytes() float64 {
	b, a := s.Before.DBSizeBytes(), s.After.DBSizeBytes()
	if a > b {
		return a
	}
	return b
}

// RequestRate implements Generator.
func (s *Switch) RequestRate(at time.Time) float64 { return s.current().RequestRate(at) }

// Sample implements Generator.
func (s *Switch) Sample(rng *rand.Rand) Query { return s.current().Sample(rng) }

// SampleInto implements Generator.
func (s *Switch) SampleInto(rng *rand.Rand, q *Query) { s.current().SampleInto(rng, q) }
