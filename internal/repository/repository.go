// Package repository implements the central data repository: the shared
// database of training workloads all tuner instances read from and all
// tuning agents upload to ("this helps all tuning services to get the
// new unknown workloads, which might have been observed on a different
// IaaS, and create a better ML model", §2). It offers both an in-process
// API and an HTTP server/client pair; the client also serves agents over
// unix domain sockets, matching the on-VM transport the paper describes.
// The repository's store is the one copy of the sample history: a
// subscribed tuner that trains on samples (bo.Tuner) reads them from
// it, and keeps only what it derives from their delivery. Save and
// LoadQuiet carry it through snapshots in a binary, catalogue-ordered
// codec (codec.go) that names each knob and metric once per engine;
// LoadQuiet still reads the JSON lines older snapshots hold.
//
// Tuner fan-out is asynchronous: Observe stores the sample and enqueues
// it on a bounded queue drained by a single background worker that
// delivers batches to every subscriber in enqueue order. An uploading
// agent therefore never stalls behind a slow tuner (a BO refit is
// O(n³)); callers that need delivery to have happened — tests, and the
// fleet scheduler's deterministic merge — drain the queue with Flush.
//
// The fan-out path is hardened against an unreliable transport (modelled
// by an injected FaultSource): every sample carries a sequence number,
// lost delivery attempts are redelivered, duplicates are dropped by a
// per-subscriber dedup window, and delayed (reordered) samples are
// released deterministically — so every subscriber observes every sample
// exactly once no matter what the transport does.
package repository

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"autodbaas/internal/obs"
	"autodbaas/internal/tuner"
)

// Fan-out queue sizing: producers block once maxPending samples are
// queued (bounded memory, lossless backpressure); the worker hands off
// at most batchSize samples per subscriber-delivery round so the lock
// is released between batches.
const (
	maxPending = 1024
	batchSize  = 64
)

// FaultSource injects delivery faults into the fan-out (implemented by
// internal/faults). SampleFault is consulted once per uploaded sample,
// in upload order: dropFirst loses the first delivery attempt to every
// subscriber (the repository redelivers), dup delivers the sample twice
// (the dedup window suppresses the copy), and delay > 0 holds the
// sample back until delay more samples have been uploaded (a
// deterministic reordering independent of drain timing).
type FaultSource interface {
	SampleFault() (dropFirst, dup bool, delay int)
}

// queued is one sample in the fan-out queue with its injected fate.
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

	mu sync.Mutex
	// contig: every seq <= contig has been delivered; sparse holds
	// delivered seqs above contig (reordering keeps this tiny).
	contig int64
	sparse map[int64]bool
}

// markDelivered records seq and reports whether it was fresh.
func (s *subscriber) markDelivered(seq int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
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
type Repository struct {
	store *tuner.Store

	mu          sync.Mutex
	notFull     sync.Cond // producers blocked on a full queue
	drained     sync.Cond // Flush waiters
	subscribers []*subscriber
	pending     []queued
	delayed     []delayedSample
	faults      FaultSource
	nextSeq     int64
	running     bool // fan-out worker alive
	closed      bool
	enqueued    int64
	delivered   int64

	redelivered atomic.Int64
	deduped     atomic.Int64
	reordered   atomic.Int64

	m repoMetrics
}

// repoMetrics are the repository's registry handles.
type repoMetrics struct {
	queueDepth   *obs.Gauge
	delivered    *obs.Counter
	batches      *obs.Counter
	blocked      *obs.Counter
	redeliveries *obs.Counter
	dedupDrops   *obs.Counter
	reorders     *obs.Counter
}

func newRepoMetrics(r *obs.Registry) repoMetrics {
	return repoMetrics{
		queueDepth:   r.Gauge("autodbaas_repository_fanout_queue_depth", "Samples waiting in the async tuner fan-out queue."),
		delivered:    r.Counter("autodbaas_repository_fanout_delivered_total", "Samples delivered to subscribed tuners (queue pops, not per-tuner)."),
		batches:      r.Counter("autodbaas_repository_fanout_batches_total", "Fan-out delivery batches executed."),
		blocked:      r.Counter("autodbaas_repository_fanout_blocked_total", "Observe calls that blocked on a full fan-out queue."),
		redeliveries: r.Counter("autodbaas_repository_fanout_redeliveries_total", "Delivery attempts repeated after an injected drop."),
		dedupDrops:   r.Counter("autodbaas_repository_fanout_dedup_dropped_total", "Duplicate deliveries suppressed by the per-subscriber dedup window."),
		reorders:     r.Counter("autodbaas_repository_fanout_reorders_total", "Samples delivered out of upload order after an injected delay."),
	}
}

// New returns an empty repository.
func New() *Repository {
	r := &Repository{store: tuner.NewStore(), m: newRepoMetrics(obs.Default())}
	r.notFull.L = &r.mu
	r.drained.L = &r.mu
	return r
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
	return r.redelivered.Load(), r.deduped.Load(), r.reordered.Load()
}

// Subscribe registers a tuner to receive every future sample (the
// "tuner instances fetch the new workloads" pull loop, push-modelled)
// and binds a tuner that trains from the store, through any
// decorators, to this repository's store. The fan-out queue is drained
// first so a late subscriber never receives samples observed before it
// subscribed.
func (r *Repository) Subscribe(t tuner.Tuner) {
	r.Flush()
	r.bind(t)
	r.mu.Lock()
	defer r.mu.Unlock()
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

// Unsubscribe removes a previously subscribed tuner. The fan-out queue
// is drained first so the departing subscriber has seen every sample
// enqueued before the call — the clean-handoff half of the dynamic
// membership contract (Subscribe is the other half). Unknown tuners are
// a no-op.
func (r *Repository) Unsubscribe(t tuner.Tuner) {
	r.Flush()
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, sub := range r.subscribers {
		if sub.t == t {
			r.subscribers = append(r.subscribers[:i], r.subscribers[i+1:]...)
			return
		}
	}
}

// Observe implements agent.SampleSink: store the sample synchronously
// and enqueue it for asynchronous fan-out. Fan-out errors (e.g. engine
// mismatch: a MySQL sample is not delivered to PostgreSQL tuners in any
// meaningful way) are skipped — each tuner accepts only its own
// engine's samples. Observe blocks only when the bounded queue is full;
// after Close it degrades to synchronous delivery.
func (r *Repository) Observe(s tuner.Sample) error {
	r.store.Add(s)
	r.mu.Lock()
	for len(r.pending) >= maxPending && !r.closed {
		r.m.blocked.Inc()
		r.notFull.Wait()
	}
	r.nextSeq++
	q := queued{s: s, seq: r.nextSeq}
	var delay int
	if r.faults != nil {
		q.dropFirst, q.dup, delay = r.faults.SampleFault()
	}
	if r.closed {
		subs := append([]*subscriber(nil), r.subscribers...)
		r.mu.Unlock()
		r.deliverBatch(subs, []queued{q})
		return nil
	}
	if delay <= 0 {
		r.enqueueLocked(q)
	}
	// Every upload ages the already-held samples; due ones join the
	// queue behind this upload, realising the injected reordering. The
	// current sample's own hold is appended after aging so it waits the
	// full `delay` later uploads.
	r.ageDelayedLocked()
	if delay > 0 {
		r.reordered.Add(1)
		r.m.reorders.Inc()
		r.delayed = append(r.delayed, delayedSample{q: q, after: delay})
	}
	r.m.queueDepth.Set(float64(len(r.pending)))
	r.startWorkerLocked()
	r.mu.Unlock()
	return nil
}

// enqueueLocked appends to the fan-out queue and accounts the sample.
func (r *Repository) enqueueLocked(q queued) {
	r.pending = append(r.pending, q)
	r.enqueued++
}

// ageDelayedLocked decrements every held sample's countdown and
// releases the due ones in hold order.
func (r *Repository) ageDelayedLocked() {
	if len(r.delayed) == 0 {
		return
	}
	kept := r.delayed[:0]
	for _, d := range r.delayed {
		d.after--
		if d.after <= 0 {
			r.enqueueLocked(d.q)
		} else {
			kept = append(kept, d)
		}
	}
	r.delayed = kept
}

// releaseDelayedLocked force-releases every held sample (Flush/Close).
func (r *Repository) releaseDelayedLocked() {
	for _, d := range r.delayed {
		r.enqueueLocked(d.q)
	}
	r.delayed = r.delayed[:0]
}

// startWorkerLocked spawns the fan-out worker if there is work.
func (r *Repository) startWorkerLocked() {
	if !r.running && len(r.pending) > 0 {
		r.running = true
		go r.fanoutLoop()
	}
}

// fanoutLoop drains the pending queue in batches, delivering each
// sample to every subscriber in enqueue order, and exits when the queue
// is empty (it is respawned on demand, so an idle repository holds no
// goroutine).
func (r *Repository) fanoutLoop() {
	r.mu.Lock()
	for {
		if len(r.pending) == 0 {
			r.running = false
			r.m.queueDepth.Set(0)
			r.drained.Broadcast()
			r.mu.Unlock()
			return
		}
		n := len(r.pending)
		if n > batchSize {
			n = batchSize
		}
		batch := make([]queued, n)
		copy(batch, r.pending)
		rest := copy(r.pending, r.pending[n:])
		r.pending = r.pending[:rest]
		subs := append([]*subscriber(nil), r.subscribers...)
		r.m.queueDepth.Set(float64(rest))
		r.notFull.Broadcast()
		r.mu.Unlock()

		r.deliverBatch(subs, batch)

		r.mu.Lock()
		r.delivered += int64(n)
		r.m.delivered.Add(float64(n))
		r.m.batches.Inc()
		r.drained.Broadcast()
	}
}

// deliverBatch pushes a batch to every subscriber with exactly-once
// semantics: injected drops are redelivered, injected duplicates are
// suppressed by the per-subscriber dedup window. Per-tuner Observe
// errors are the tuner's concern (engine mismatch and similar).
func (r *Repository) deliverBatch(subs []*subscriber, batch []queued) {
	for _, q := range batch {
		for _, sub := range subs {
			if q.dropFirst {
				// The first attempt was lost in transit; the sample is
				// still in hand, so redeliver immediately.
				r.redelivered.Add(1)
				r.m.redeliveries.Inc()
			}
			copies := 1
			if q.dup {
				copies = 2
			}
			for c := 0; c < copies; c++ {
				if !sub.markDelivered(q.seq) {
					r.deduped.Add(1)
					r.m.dedupDrops.Inc()
					continue
				}
				_ = sub.t.Observe(q.s)
			}
		}
	}
}

// Flush blocks until every sample enqueued before the call — including
// samples held back by injected reordering — has been delivered to all
// subscribers. The fleet scheduler calls it before each ordered dispatch
// so recommendations always see the tuner state the sequential schedule
// would; tests call it to drain.
func (r *Repository) Flush() {
	r.mu.Lock()
	r.releaseDelayedLocked()
	r.startWorkerLocked()
	for r.delivered < r.enqueued {
		r.drained.Wait()
	}
	r.mu.Unlock()
}

// Close drains the queue and switches the repository to synchronous
// delivery; it is idempotent and Observe remains usable afterwards.
func (r *Repository) Close() {
	r.mu.Lock()
	r.closed = true
	r.notFull.Broadcast()
	r.mu.Unlock()
	r.Flush()
}

// Pending returns how many samples are waiting in the fan-out queue
// (including delayed holds).
func (r *Repository) Pending() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pending) + len(r.delayed)
}

// Stats is a point-in-time summary of the repository: stored samples,
// fan-out progress and subscriber count. The shard runtime reports it
// over RPC so the coordinator can audit each worker's data plane
// without reaching into the process.
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
		Enqueued:    r.enqueued,
		Delivered:   r.delivered,
		Pending:     len(r.pending) + len(r.delayed),
		Subscribers: len(r.subscribers),
	}
}

// Store returns the underlying sample store.
func (r *Repository) Store() *tuner.Store { return r.store }

// Len returns the number of stored samples.
func (r *Repository) Len() int { return r.store.Len() }

// Save writes every stored sample in the binary store codec (codec.go),
// the repository's durable form — the central data repository survives
// tuner-instance restarts so "tuning services running on different
// IaaS'es fetch the new workloads" from one durable store. Any float
// value, NaN and ±Inf included, round-trips bit for bit.
func (r *Repository) Save(w io.Writer) error {
	if _, err := w.Write(encodeStore(r.store.All())); err != nil {
		return fmt.Errorf("repository: save: %w", err)
	}
	return nil
}

// LoadQuiet reads a store section into the store WITHOUT fanning the
// samples out to subscribers and without consuming fan-out sequence
// numbers. This is the checkpoint-restore ingestion path: subscriber
// (tuner) state is restored from its own snapshot section, so
// re-delivering the stored samples would feed every tuner each sample a
// second time. It reads Save's binary codec and, for snapshots written
// before it, JSON lines (one tuner.Sample per line), told apart by the
// binary codec's magic. The whole section decodes before the first
// sample is stored, so on error the store is unchanged.
func (r *Repository) LoadQuiet(rd io.Reader) (int, error) {
	data, err := readSection(rd)
	if err != nil {
		return 0, fmt.Errorf("repository: load: %w", err)
	}
	var samples []tuner.Sample
	if bytes.HasPrefix(data, []byte(storeMagic)) {
		samples, err = decodeStore(data)
	} else {
		samples, err = decodeLegacy(data)
	}
	if err != nil {
		return 0, fmt.Errorf("repository: load: %w", err)
	}
	for _, s := range samples {
		r.store.Add(s)
	}
	return len(samples), nil
}

// readSection reads all of rd, in one allocation when rd knows how many
// bytes it holds (a bytes.Reader over a snapshot section does).
func readSection(rd io.Reader) ([]byte, error) {
	if l, ok := rd.(interface{ Len() int }); ok {
		data := make([]byte, l.Len())
		_, err := io.ReadFull(rd, data)
		return data, err
	}
	return io.ReadAll(rd)
}
