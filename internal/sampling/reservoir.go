// Package sampling implements Vitter's reservoir sampling (Algorithm R),
// which the Throttling Detection Engine uses to keep a bounded,
// uniformly random pool of query templates out of the streaming query
// log — "the final template selection takes place from the pool of
// queries by reservoir sampling" (paper §3.1).
package sampling

import (
	"errors"
	"math/rand"
)

// Reservoir maintains a uniform random sample of size at most k over a
// stream of items of type T. It is not safe for concurrent use; the TDE
// owns one per detector goroutine.
type Reservoir[T any] struct {
	k     int
	seen  int
	items []T
	rng   *rand.Rand
}

// NewReservoir returns a reservoir of capacity k drawing randomness from
// rng. It returns an error for non-positive k or nil rng.
func NewReservoir[T any](k int, rng *rand.Rand) (*Reservoir[T], error) {
	if k <= 0 {
		return nil, errors.New("sampling: reservoir capacity must be positive")
	}
	if rng == nil {
		return nil, errors.New("sampling: nil rng")
	}
	return &Reservoir[T]{k: k, items: make([]T, 0, k), rng: rng}, nil
}

// Offer presents one stream item; it is retained with the probability
// dictated by Algorithm R.
func (r *Reservoir[T]) Offer(item T) {
	r.seen++
	if len(r.items) < r.k {
		r.items = append(r.items, item)
		return
	}
	if j := r.rng.Intn(r.seen); j < r.k {
		r.items[j] = item
	}
}

// Sample returns a copy of the current reservoir contents.
func (r *Reservoir[T]) Sample() []T {
	out := make([]T, len(r.items))
	copy(out, r.items)
	return out
}

// Seen returns how many items have been offered.
func (r *Reservoir[T]) Seen() int { return r.seen }

// Cap returns the reservoir capacity.
func (r *Reservoir[T]) Cap() int { return r.k }

// Reset empties the reservoir and the seen counter.
func (r *Reservoir[T]) Reset() {
	r.items = r.items[:0]
	r.seen = 0
}

// ReservoirState is a reservoir's serializable mutable state. The rng
// is shared with (and checkpointed by) the reservoir's owner, so it is
// not part of this state.
type ReservoirState[T any] struct {
	Seen  int `json:"seen"`
	Items []T `json:"items"`
}

// CheckpointState captures the reservoir contents and stream position.
func (r *Reservoir[T]) CheckpointState() ReservoirState[T] {
	return ReservoirState[T]{Seen: r.seen, Items: r.Sample()}
}

// RestoreCheckpointState overwrites the reservoir contents. The caller
// has checked that the state holds min(Seen, Cap()) items.
func (r *Reservoir[T]) RestoreCheckpointState(st ReservoirState[T]) {
	r.items = append(r.items[:0], st.Items...)
	r.seen = st.Seen
}
