// Package repository implements the central data repository: the shared
// database of training workloads all tuner instances read from and all
// tuning agents upload to ("this helps all tuning services to get the
// new unknown workloads, which might have been observed on a different
// IaaS, and create a better ML model", §2). Agents reach it through its
// in-process API; package httpapi serves the same API over HTTP.
// The repository's store is the one copy of the sample history: a
// subscribed tuner that trains on samples (bo.Tuner) reads them from
// it, and keeps only what it derives from their delivery. StageStore
// and LoadQuiet carry it through snapshots in a binary, catalogue-ordered
// codec (codec.go) that names each knob and metric once per engine.
//
// Tuner fan-out is synchronous: Observe stores the sample and delivers
// it to every subscriber before it returns, in upload order. A
// subscribed tuner's Observe is cheap (bo.Tuner only folds the sample
// into a running mean), so an uploading agent waits for no refit.
//
// The fan-out path is hardened against an unreliable transport (modelled
// by an injected FaultSource): every sample carries a sequence number,
// lost delivery attempts are redelivered, duplicates are dropped by a
// per-subscriber dedup window, and delayed (reordered) samples are held
// back and released deterministically — so every subscriber observes
// every sample exactly once no matter what the transport does. Flush
// releases whatever is still held; the fleet scheduler calls it before
// each ordered dispatch.
package repository

import (
	"bytes"
	"fmt"
	"sync"

	"autodbaas/internal/obs"
	"autodbaas/internal/tuner"
)

// FaultSource injects delivery faults into the fan-out (implemented by
// internal/faults). SampleFault is consulted once per uploaded sample,
// in upload order: dropFirst loses the first delivery attempt to every
// subscriber (the repository redelivers), dup delivers the sample twice
// (the dedup window suppresses the copy), and delay > 0 holds the
// sample back until delay more samples have been uploaded (a
// deterministic reordering).
type FaultSource interface {
	SampleFault() (dropFirst, dup bool, delay int)
}

// queued is one uploaded sample with its injected fate.
type queued struct {
	s         tuner.Sample
	seq       int64
	dropFirst bool
	dup       bool
}

// delayedSample is a reordered sample awaiting release.
type delayedSample struct {
	q     queued
	after int // released once this many more samples are uploaded
}

// subscriber pairs a tuner with its exactly-once delivery state.
type subscriber struct {
	t tuner.Tuner
	// contig: every seq <= contig has been delivered; sparse holds
	// delivered seqs above contig (reordering keeps this tiny).
	contig int64
	sparse map[int64]bool
}

// markDelivered records seq and reports whether it was fresh.
func (s *subscriber) markDelivered(seq int64) bool {
	if seq <= s.contig || s.sparse[seq] {
		return false
	}
	if s.sparse == nil {
		s.sparse = make(map[int64]bool)
	}
	s.sparse[seq] = true
	for s.sparse[s.contig+1] {
		s.contig++
		delete(s.sparse, s.contig)
	}
	return true
}

// Repository stores samples and fans them out to subscribed tuners.
// mu guards everything below it and is held while a sample is
// delivered, so subscribers see samples one at a time, in release
// order.
type Repository struct {
	store *tuner.Store

	mu          sync.Mutex
	subscribers []*subscriber
	delayed     []delayedSample
	faults      FaultSource
	nextSeq     int64
	delivered   int64

	redelivered int64
	deduped     int64
	reordered   int64

	m repoMetrics
}

// repoMetrics are the repository's registry handles.
type repoMetrics struct {
	delivered    *obs.Counter
	redeliveries *obs.Counter
	dedupDrops   *obs.Counter
	reorders     *obs.Counter
}

func newRepoMetrics(r *obs.Registry) repoMetrics {
	return repoMetrics{
		delivered:    r.Counter("autodbaas_repository_fanout_delivered_total", "Samples delivered to subscribed tuners (per sample, not per tuner)."),
		redeliveries: r.Counter("autodbaas_repository_fanout_redeliveries_total", "Delivery attempts repeated after an injected drop."),
		dedupDrops:   r.Counter("autodbaas_repository_fanout_dedup_dropped_total", "Duplicate deliveries suppressed by the per-subscriber dedup window."),
		reorders:     r.Counter("autodbaas_repository_fanout_reorders_total", "Samples delivered out of upload order after an injected delay."),
	}
}

// New returns an empty repository.
func New() *Repository {
	return &Repository{store: tuner.NewStore(), m: newRepoMetrics(obs.Default())}
}

// InjectFaults installs a fault source on the fan-out path (nil clears
// it). Install before the first Observe: fates are drawn per upload.
func (r *Repository) InjectFaults(src FaultSource) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.faults = src
}

// FaultStats reports the fan-out hardening counters: redelivered
// attempts, dedup-suppressed duplicates and reordered deliveries.
func (r *Repository) FaultStats() (redelivered, deduped, reordered int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.redelivered, r.deduped, r.reordered
}

// Subscribe registers a tuner to receive every future sample (the
// "tuner instances fetch the new workloads" pull loop, push-modelled)
// and binds a tuner that trains from the store, through any
// decorators, to this repository's store. Held samples are released
// first, so a late subscriber never receives samples observed before
// it subscribed.
func (r *Repository) Subscribe(t tuner.Tuner) {
	r.bind(t)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.releaseDelayedLocked()
	r.subscribers = append(r.subscribers, &subscriber{t: t, contig: r.nextSeq})
}

// Rebind binds every subscribed tuner that trains from the store back
// to this repository's store, after another repository has bound them
// (a failed shard restore subscribes the shard's tuners to a rebuild
// it then discards).
func (r *Repository) Rebind() {
	r.mu.Lock()
	subs := append([]*subscriber(nil), r.subscribers...)
	r.mu.Unlock()
	for _, sub := range subs {
		r.bind(sub.t)
	}
}

// bind points a tuner that trains from the store instead of keeping
// its own copy of the samples delivered to it (bo.Tuner) at this
// repository's store.
func (r *Repository) bind(t tuner.Tuner) {
	if sr, ok := tuner.Unwrap(t).(interface{ BindStore(*tuner.Store) }); ok {
		sr.BindStore(r.store)
	}
}

// Observe implements agent.SampleSink: store the sample and deliver it
// to every subscriber before returning, unless an injected delay holds
// it back. Each upload ages the held samples and delivers the due ones
// after itself, realising the injected reordering. Fan-out errors (e.g.
// engine mismatch: a MySQL sample is not delivered to PostgreSQL tuners
// in any meaningful way) are skipped — each tuner accepts only its own
// engine's samples. A subscriber's Observe must not call back into the
// repository; reading the store it is bound to is fine.
func (r *Repository) Observe(s tuner.Sample) error {
	r.store.Add(s)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextSeq++
	q := queued{s: s, seq: r.nextSeq}
	var delay int
	if r.faults != nil {
		q.dropFirst, q.dup, delay = r.faults.SampleFault()
	}
	if delay <= 0 {
		r.deliverLocked(q)
	}
	// The current sample's own hold is appended after aging so it waits
	// the full `delay` later uploads.
	r.ageDelayedLocked()
	if delay > 0 {
		r.reordered++
		r.m.reorders.Inc()
		r.delayed = append(r.delayed, delayedSample{q: q, after: delay})
	}
	return nil
}

// ageDelayedLocked decrements every held sample's countdown and
// delivers the due ones in hold order.
func (r *Repository) ageDelayedLocked() {
	if len(r.delayed) == 0 {
		return
	}
	kept := r.delayed[:0]
	for _, d := range r.delayed {
		d.after--
		if d.after <= 0 {
			r.deliverLocked(d.q)
		} else {
			kept = append(kept, d)
		}
	}
	r.delayed = kept
}

// releaseDelayedLocked delivers every held sample in hold order.
func (r *Repository) releaseDelayedLocked() {
	for _, d := range r.delayed {
		r.deliverLocked(d.q)
	}
	r.delayed = r.delayed[:0]
}

// deliverLocked pushes one sample to every subscriber with exactly-once
// semantics: injected drops are redelivered, injected duplicates are
// suppressed by the per-subscriber dedup window. Per-tuner Observe
// errors are the tuner's concern (engine mismatch and similar).
func (r *Repository) deliverLocked(q queued) {
	for _, sub := range r.subscribers {
		if q.dropFirst {
			// The first attempt was lost in transit; the sample is still
			// in hand, so redeliver immediately.
			r.redelivered++
			r.m.redeliveries.Inc()
		}
		copies := 1
		if q.dup {
			copies = 2
		}
		for c := 0; c < copies; c++ {
			if !sub.markDelivered(q.seq) {
				r.deduped++
				r.m.dedupDrops.Inc()
				continue
			}
			_ = sub.t.Observe(q.s)
		}
	}
	r.delivered++
	r.m.delivered.Inc()
}

// Flush delivers every sample held back by injected reordering, so all
// samples uploaded before the call have reached every subscriber. The
// fleet scheduler calls it before each ordered dispatch, so a faulted
// timeline releases held samples at the same points at every
// parallelism level.
func (r *Repository) Flush() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.releaseDelayedLocked()
}

// Close releases every held sample; Observe remains usable afterwards.
func (r *Repository) Close() { r.Flush() }

// Pending returns how many samples injected reordering still holds.
func (r *Repository) Pending() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.delayed)
}

// Stats is a point-in-time summary of the repository: stored samples,
// fan-out progress and subscriber count. The shard runtime reports it
// over RPC so the coordinator can audit each worker's data plane
// without reaching into the process. Enqueued and Delivered both count
// delivered samples (delivery is synchronous); Pending counts held
// ones.
type Stats struct {
	Samples     int   `json:"samples"`
	Enqueued    int64 `json:"enqueued"`
	Delivered   int64 `json:"delivered"`
	Pending     int   `json:"pending"`
	Subscribers int   `json:"subscribers"`
}

// Stats returns the current repository statistics.
func (r *Repository) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{
		Samples:     r.store.Len(),
		Enqueued:    r.delivered,
		Delivered:   r.delivered,
		Pending:     len(r.delayed),
		Subscribers: len(r.subscribers),
	}
}

// Store returns the underlying sample store.
func (r *Repository) Store() *tuner.Store { return r.store }

// Len returns the number of stored samples.
func (r *Repository) Len() int { return r.store.Len() }

// StageStore plans the store section, the repository's durable form —
// the central data repository survives tuner-instance restarts so
// "tuning services running on different IaaS'es fetch the new
// workloads" from one durable store — in the binary store codec
// (codec.go). Any float value, NaN and ±Inf included, round-trips bit
// for bit. The plan visits the store once and keeps no sample; the
// section's WriteTo encodes them from the store, under its read lock,
// as it writes. No Add may run between the two (a snapshot holds the
// step lock with the fan-out flushed); a write that finds the store
// grown fails.
func (r *Repository) StageStore() (*StoreSection, error) {
	p, err := planStore(r.store.Range)
	if err != nil {
		return nil, fmt.Errorf("repository: save: %w", err)
	}
	return p, nil
}

// Save returns the store section (see StageStore) as one slice of its
// exact length.
func (r *Repository) Save() ([]byte, error) {
	b, err := encodeStore(r.store.Range)
	if err != nil {
		return nil, fmt.Errorf("repository: save: %w", err)
	}
	return b, nil
}

// LoadQuiet reads a store section into the store WITHOUT fanning the
// samples out to subscribers and without consuming fan-out sequence
// numbers. This is the checkpoint-restore ingestion path: subscriber
// (tuner) state is restored from its own snapshot section, so
// re-delivering the stored samples would feed every tuner each sample a
// second time. It reads the codec's binary section in place; a section
// without its magic is rejected. The samples decode into chunks of
// their own, which join the store under its lock only once the whole
// section has decoded, so on error the store is unchanged. The store
// keeps no reference to data.
func (r *Repository) LoadQuiet(data []byte) (int, error) {
	if !bytes.HasPrefix(data, []byte(storeMagic)) {
		return 0, fmt.Errorf("repository: load: section does not open with the store magic %q", storeMagic)
	}
	fresh := tuner.NewStore()
	n, err := decodeStore(data, fresh.Add)
	if err != nil {
		return 0, fmt.Errorf("repository: load: %w", err)
	}
	r.store.Absorb(fresh)
	return n, nil
}
