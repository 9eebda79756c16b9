// Package prng wraps math/rand's default source with a step counter so
// a PRNG stream's exact position can be checkpointed and restored.
//
// The checkpoint subsystem must resume every random stream — instance
// engines, fault-injection sites, tuner candidate samplers — at the bit
// the interrupted run would have drawn next. math/rand.Rand offers no
// way to export its state, but its generator is deterministic: the same
// seed replays the same sequence. A Source therefore records (seed,
// steps drawn) and restores by reseeding and discarding that many
// draws. The underlying generator is the stock math/rand source, so
// wrapping it changes no simulated behavior: every Int63/Uint64 a
// *rand.Rand pulls advances the native generator by exactly one step
// either way.
//
// Replay cost is linear in steps: about 4 ns per discarded draw on a
// 2 vCPU host, so a stream of a few hundred thousand draws restores in
// about a millisecond. A fleet restore replays every stream, though.
// The seed-1 snapshot at the end of the bench's steady-fleet workload
// (60 instances, 210 five-minute windows) holds 128 streams with 23.2 M
// draws between them, and a profile put Restore at 0.27 s of the
// ≈ 0.95 s of CPU that two such restores took. The draw count, and so
// this cost, grows linearly with run length.
//
// The one math/rand.Rand method a Source cannot make restorable is
// Read, which buffers partial words inside the Rand itself; nothing in
// this codebase uses it (TestRandReadUnused pins that).
package prng

import (
	"fmt"
	"math/rand"
)

// Source is a counting math/rand Source64.
//
// It is not safe for concurrent use, matching the *rand.Rand values it
// backs; every holder in this codebase guards its RNG with the same
// lock that guards the rest of its state.
type Source struct {
	seed  int64
	steps uint64
	src   rand.Source64
}

// NewSource returns a counting source seeded like rand.NewSource(seed).
func NewSource(seed int64) *Source {
	return &Source{seed: seed, src: rand.NewSource(seed).(rand.Source64)}
}

// New returns a *rand.Rand over a fresh counting source, plus the
// source for state capture. Drop-in for rand.New(rand.NewSource(seed)).
func New(seed int64) (*rand.Rand, *Source) {
	src := NewSource(seed)
	return rand.New(src), src
}

// Int63 implements rand.Source.
func (s *Source) Int63() int64 {
	s.steps++
	return s.src.Int63()
}

// Uint64 implements rand.Source64. The native source derives Int63 and
// Uint64 from the same single generator step, so both count as one.
func (s *Source) Uint64() uint64 {
	s.steps++
	return s.src.Uint64()
}

// Seed implements rand.Source, resetting the step count.
func (s *Source) Seed(seed int64) {
	s.seed = seed
	s.steps = 0
	s.src = rand.NewSource(seed).(rand.Source64)
}

// State is a serializable PRNG stream position.
type State struct {
	Seed  int64  `json:"seed"`
	Steps uint64 `json:"steps"`
}

// State returns the stream's current position.
func (s *Source) State() State { return State{Seed: s.seed, Steps: s.steps} }

// Restore repositions the stream: reseed and replay st.Steps discarded
// draws so the next value matches what the checkpointed stream would
// have produced.
func (s *Source) Restore(st State) {
	s.Seed(st.Seed)
	for i := uint64(0); i < st.Steps; i++ {
		s.src.Uint64()
	}
	s.steps = st.Steps
}

// FromState builds a *rand.Rand positioned at st.
func FromState(st State) (*rand.Rand, *Source) {
	src := NewSource(st.Seed)
	src.Restore(st)
	return rand.New(src), src
}

// String implements fmt.Stringer for debug output.
func (s *Source) String() string {
	return fmt.Sprintf("prng(seed=%d steps=%d)", s.seed, s.steps)
}
