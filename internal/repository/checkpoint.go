package repository

import (
	"fmt"
	"sort"

	"autodbaas/internal/tuner"
)

// SubscriberState is one subscriber's exactly-once delivery watermark.
type SubscriberState struct {
	Contig int64   `json:"contig"`
	Sparse []int64 `json:"sparse,omitempty"`
}

// DelayedState is one reordered sample still held back at snapshot time.
type DelayedState struct {
	Sample    tuner.Sample `json:"sample"`
	Seq       int64        `json:"seq"`
	DropFirst bool         `json:"drop_first,omitempty"`
	Dup       bool         `json:"dup,omitempty"`
	After     int          `json:"after"`
}

// State is the repository's fan-out bookkeeping: the sequence counter,
// per-subscriber dedup watermarks (in Subscribe order), any still-held
// delayed samples, and the hardening counters. The stored samples
// themselves are serialized separately via Save/LoadQuiet.
type State struct {
	NextSeq     int64             `json:"next_seq"`
	Enqueued    int64             `json:"enqueued"`
	Delivered   int64             `json:"delivered"`
	Subscribers []SubscriberState `json:"subscribers,omitempty"`
	Delayed     []DelayedState    `json:"delayed,omitempty"`
	Redelivered int64             `json:"redelivered"`
	Deduped     int64             `json:"deduped"`
	Reordered   int64             `json:"reordered"`
}

// CheckpointState captures the fan-out bookkeeping. Enqueued and
// Delivered are both the delivered count: delivery is synchronous, so
// only held samples are ever in flight, and they ride in Delayed.
func (r *Repository) CheckpointState() State {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := State{
		NextSeq:     r.nextSeq,
		Enqueued:    r.delivered,
		Delivered:   r.delivered,
		Redelivered: r.redelivered,
		Deduped:     r.deduped,
		Reordered:   r.reordered,
	}
	for _, sub := range r.subscribers {
		ss := SubscriberState{Contig: sub.contig}
		for seq := range sub.sparse {
			ss.Sparse = append(ss.Sparse, seq)
		}
		sort.Slice(ss.Sparse, func(i, j int) bool { return ss.Sparse[i] < ss.Sparse[j] })
		st.Subscribers = append(st.Subscribers, ss)
	}
	for _, d := range r.delayed {
		st.Delayed = append(st.Delayed, DelayedState{
			Sample:    d.q.s,
			Seq:       d.q.seq,
			DropFirst: d.q.dropFirst,
			Dup:       d.q.dup,
			After:     d.after,
		})
	}
	return st
}

// RestoreCheckpointState overwrites the fan-out bookkeeping. The same
// subscribers must already be registered, in the same order, as when the
// snapshot was taken (the rebuild re-subscribes the same tuner set). A
// state no CheckpointState could have written is rejected before the
// first mutation.
func (r *Repository) RestoreCheckpointState(st State) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.subscribers) != len(st.Subscribers) {
		return fmt.Errorf("repository: snapshot has %d subscribers, repository has %d", len(st.Subscribers), len(r.subscribers))
	}
	if err := st.validate(); err != nil {
		return fmt.Errorf("repository: %w", err)
	}
	for i, ss := range st.Subscribers {
		sub := r.subscribers[i]
		sub.contig = ss.Contig
		sub.sparse = nil
		if len(ss.Sparse) > 0 {
			sub.sparse = make(map[int64]bool, len(ss.Sparse))
			for _, seq := range ss.Sparse {
				sub.sparse[seq] = true
			}
		}
	}
	r.nextSeq = st.NextSeq
	r.delivered = st.Delivered
	r.delayed = r.delayed[:0]
	for _, d := range st.Delayed {
		r.delayed = append(r.delayed, delayedSample{
			q:     queued{s: d.Sample, seq: d.Seq, dropFirst: d.DropFirst, dup: d.Dup},
			after: d.After,
		})
	}
	r.redelivered = st.Redelivered
	r.deduped = st.Deduped
	r.reordered = st.Reordered
	return nil
}

// validate reports the first way st differs from every state
// CheckpointState can write: each uploaded sample is either delivered or
// held, and every recorded sequence number was issued.
func (st State) validate() error {
	if st.Enqueued != st.Delivered {
		return fmt.Errorf("fan-out enqueued %d != delivered %d", st.Enqueued, st.Delivered)
	}
	if st.Delivered < 0 || st.NextSeq < st.Delivered || st.NextSeq-st.Delivered != int64(len(st.Delayed)) {
		return fmt.Errorf("fan-out delivered %d + %d held != next seq %d", st.Delivered, len(st.Delayed), st.NextSeq)
	}
	for i, ss := range st.Subscribers {
		if ss.Contig < 0 || ss.Contig > st.NextSeq {
			return fmt.Errorf("subscriber %d watermark %d outside [0, %d]", i, ss.Contig, st.NextSeq)
		}
		prev := ss.Contig
		for _, seq := range ss.Sparse {
			if seq <= prev || seq > st.NextSeq {
				return fmt.Errorf("subscriber %d seq %d out of order or outside (%d, %d]", i, seq, ss.Contig, st.NextSeq)
			}
			prev = seq
		}
	}
	for _, d := range st.Delayed {
		if d.Seq <= 0 || d.Seq > st.NextSeq {
			return fmt.Errorf("held seq %d outside [1, %d]", d.Seq, st.NextSeq)
		}
	}
	return nil
}
