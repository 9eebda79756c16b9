package repository

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"autodbaas/internal/knobs"
	"autodbaas/internal/tuner"
)

// recordingTuner captures the delivery order of workload IDs.
type recordingTuner struct {
	mu  sync.Mutex
	ids []string
}

func (r *recordingTuner) Name() string { return "recording" }
func (r *recordingTuner) Observe(s tuner.Sample) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ids = append(r.ids, s.WorkloadID)
	return nil
}
func (r *recordingTuner) Recommend(tuner.Request) (tuner.Recommendation, error) {
	return tuner.Recommendation{}, tuner.ErrNotTrained
}

func (r *recordingTuner) snapshot() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.ids...)
}

// TestObserveDeliversBeforeReturning: with no fault source, each
// subscriber holds the sample, and Stats counts it, as soon as Observe
// returns; no Flush is needed, and a later Flush changes nothing.
func TestObserveDeliversBeforeReturning(t *testing.T) {
	r := New()
	rec := &recordingTuner{}
	r.Subscribe(rec)
	const n = 200
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("w-%03d", i)
		if err := r.Observe(tuner.Sample{WorkloadID: id, Engine: knobs.Postgres}); err != nil {
			t.Fatal(err)
		}
		got := rec.snapshot()
		if len(got) != i+1 || got[i] != id {
			t.Fatalf("after Observe(%s) the subscriber holds %d samples ending %v", id, len(got), got[len(got)-1:])
		}
		if st := r.Stats(); st.Enqueued != int64(i+1) || st.Delivered != int64(i+1) || st.Pending != 0 {
			t.Fatalf("after Observe(%s) stats = %+v", id, st)
		}
	}
	r.Flush()
	if got := len(rec.snapshot()); got != n {
		t.Fatalf("Flush redelivered: %d samples, want %d", got, n)
	}
	if st := r.Stats(); st.Delivered != n || st.Pending != 0 {
		t.Fatalf("Flush changed stats: %+v", st)
	}
}

// seqTuner records the sequence number of each sample delivered to it.
// Delivery runs under the repository's lock, and with no fault source
// the sample being delivered is always the newest upload.
type seqTuner struct {
	r    *Repository
	seqs []int64
}

func (s *seqTuner) Name() string { return "seq" }
func (s *seqTuner) Observe(tuner.Sample) error {
	s.seqs = append(s.seqs, s.r.nextSeq)
	return nil
}
func (s *seqTuner) Recommend(tuner.Request) (tuner.Recommendation, error) {
	return tuner.Recommendation{}, tuner.ErrNotTrained
}

// TestConcurrentProducersDeliverEachSeqOnceInOrder: uploads from many
// goroutines (the fleet's agents) are all stored, and each subscriber
// receives every sequence number exactly once, in increasing order.
func TestConcurrentProducersDeliverEachSeqOnceInOrder(t *testing.T) {
	r := New()
	subs := []*seqTuner{{r: r}, {r: r}}
	for _, s := range subs {
		r.Subscribe(s)
	}
	const producers, perProducer = 8, 50
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				_ = r.Observe(tuner.Sample{WorkloadID: fmt.Sprintf("p%d", p), Engine: knobs.Postgres})
			}
		}(p)
	}
	wg.Wait()
	const total = producers * perProducer
	if r.Len() != total {
		t.Fatalf("stored %d, want %d", r.Len(), total)
	}
	for i, s := range subs {
		if len(s.seqs) != total {
			t.Fatalf("subscriber %d received %d samples, want %d", i, len(s.seqs), total)
		}
		for j, seq := range s.seqs {
			if seq != int64(j+1) {
				t.Fatalf("subscriber %d delivery %d carried seq %d, want %d", i, j, seq, j+1)
			}
		}
	}
	if st := r.Stats(); st.Delivered != total || st.Pending != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// storeReadingTuner trains from the store it is bound to, as bo.Tuner
// does: each Observe reads the sample's workload back from the store.
type storeReadingTuner struct {
	store *tuner.Store
	seen  []int
}

func (s *storeReadingTuner) Name() string                 { return "store-reading" }
func (s *storeReadingTuner) BindStore(store *tuner.Store) { s.store = store }
func (s *storeReadingTuner) Observe(sm tuner.Sample) error {
	s.seen = append(s.seen, len(s.store.Samples(sm.WorkloadID)))
	return nil
}
func (s *storeReadingTuner) Recommend(tuner.Request) (tuner.Recommendation, error) {
	return tuner.Recommendation{}, tuner.ErrNotTrained
}

// TestSubscriberReadingItsStoreDoesNotDeadlock: delivery holds the
// repository's lock, not the store's, so a subscriber that reads its
// workload's samples through the bound store completes, and sees the
// sample being delivered already stored.
func TestSubscriberReadingItsStoreDoesNotDeadlock(t *testing.T) {
	r := New()
	sub := &storeReadingTuner{}
	r.Subscribe(sub)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 3; i++ {
			_ = r.Observe(tuner.Sample{WorkloadID: "w", Engine: knobs.Postgres})
		}
		r.Flush()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Observe did not return: delivery deadlocked on the store")
	}
	if fmt.Sprint(sub.seen) != "[1 2 3]" {
		t.Fatalf("subscriber read %v samples per delivery, want [1 2 3]", sub.seen)
	}
}

// TestCloseReleasesHeldSamples: Close releases every sample injected
// reordering still holds, is idempotent, and Observe keeps delivering
// afterwards.
func TestCloseReleasesHeldSamples(t *testing.T) {
	r := New()
	r.InjectFaults(&scriptedFaults{fates: []struct {
		drop, dup bool
		delay     int
	}{{delay: 3}}})
	rec := &recordingTuner{}
	r.Subscribe(rec)
	_ = r.Observe(tuner.Sample{WorkloadID: "before", Engine: knobs.Postgres})
	if got := rec.snapshot(); len(got) != 0 {
		t.Fatalf("held sample delivered early: %v", got)
	}
	r.Close()
	if got := rec.snapshot(); len(got) != 1 || got[0] != "before" {
		t.Fatalf("after Close delivered %v", got)
	}
	_ = r.Observe(tuner.Sample{WorkloadID: "after", Engine: knobs.Postgres})
	if got := rec.snapshot(); len(got) != 2 || got[1] != "after" {
		t.Fatalf("post-Close observe delivered %v", got)
	}
	r.Close() // idempotent
	if got := len(rec.snapshot()); got != 2 || r.Pending() != 0 {
		t.Fatalf("second Close: %d delivered, %d pending", got, r.Pending())
	}
}

// TestFlushOnEmptyQueueReturnsImmediately guards the fleet scheduler's
// per-dispatch Flush: on a repository holding nothing it must be a
// cheap no-op.
func TestFlushOnEmptyQueueReturnsImmediately(t *testing.T) {
	r := New()
	for i := 0; i < 1000; i++ {
		r.Flush()
	}
}
