package repository

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"autodbaas/internal/knobs"
	"autodbaas/internal/tuner"
)

// fanoutFixture is a repository with two subscribers, the second of
// which joined late, and one sample still held by injected reordering.
func fanoutFixture(t testing.TB) *Repository {
	t.Helper()
	r := New()
	r.InjectFaults(&scriptedFaults{fates: []struct {
		drop, dup bool
		delay     int
	}{{}, {}, {dup: true}, {delay: 2}}})
	r.Subscribe(&recordingTuner{})
	for i := 0; i < 3; i++ {
		if err := r.Observe(tuner.Sample{WorkloadID: fmt.Sprintf("w-%d", i), Engine: knobs.Postgres}); err != nil {
			t.Fatal(err)
		}
	}
	r.Subscribe(&recordingTuner{})
	if err := r.Observe(tuner.Sample{WorkloadID: "held", Engine: knobs.Postgres}); err != nil {
		t.Fatal(err)
	}
	return r
}

// observeAndFlushWithin runs one upload and a Flush, failing the test
// rather than hanging if they do not return.
func observeAndFlushWithin(t testing.TB, r *Repository, d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = r.Observe(tuner.Sample{WorkloadID: "next", Engine: knobs.Postgres})
		r.Flush()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("Observe + Flush still blocked after %v", d)
	}
}

// TestRestoreRejectsImpossibleFanoutState: a fan-out section that no
// checkpoint could have written is rejected before the first mutation,
// so the bookkeeping is unchanged and the next Flush returns.
func TestRestoreRejectsImpossibleFanoutState(t *testing.T) {
	cases := map[string]func(st *State){
		"enqueued ahead of delivered": func(st *State) { *st = State{NextSeq: 5, Enqueued: 5, Delivered: 0, Subscribers: st.Subscribers} },
		"enqueued != delivered":       func(st *State) { st.Enqueued++ },
		"seq not delivered or held":   func(st *State) { st.NextSeq++ },
		"negative delivered":          func(st *State) { st.Enqueued, st.Delivered = -1, -1; st.NextSeq = int64(len(st.Delayed)) - 1 },
		"watermark past next seq":     func(st *State) { st.Subscribers[0].Contig = st.NextSeq + 1 },
		"negative watermark":          func(st *State) { st.Subscribers[1].Contig = -1 },
		"sparse seq at watermark":     func(st *State) { st.Subscribers[0].Sparse = []int64{st.Subscribers[0].Contig} },
		"sparse seq past next seq":    func(st *State) { st.Subscribers[0].Sparse = []int64{st.NextSeq + 1} },
		"sparse seqs out of order":    func(st *State) { st.Subscribers[1].Contig = 1; st.Subscribers[1].Sparse = []int64{4, 3} },
		"held seq zero":               func(st *State) { st.Delayed[0].Seq = 0 },
		"held seq past next seq":      func(st *State) { st.Delayed[0].Seq = st.NextSeq + 1 },
		"subscriber count mismatch":   func(st *State) { st.Subscribers = st.Subscribers[:1] },
		"next seq below delivered":    func(st *State) { st.NextSeq, st.Delayed = st.Delivered-1, nil },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			r := fanoutFixture(t)
			before := r.CheckpointState()
			var bad State
			raw, _ := json.Marshal(before)
			if err := json.Unmarshal(raw, &bad); err != nil {
				t.Fatal(err)
			}
			mutate(&bad)
			if err := r.RestoreCheckpointState(bad); err == nil {
				t.Fatalf("restored %+v", bad)
			}
			if got := r.CheckpointState(); !reflect.DeepEqual(got, before) {
				t.Fatalf("rejected restore mutated the state:\n got %+v\nwant %+v", got, before)
			}
			observeAndFlushWithin(t, r, 2*time.Second)
		})
	}
}

// FuzzRestoreFanout restores arbitrary fan-out sections onto a
// repository with two subscribers. Each must either fail and leave the
// bookkeeping unchanged, or succeed, checkpoint back to itself, and
// leave a repository whose next Observe and Flush return.
func FuzzRestoreFanout(f *testing.F) {
	good, err := json.Marshal(fanoutFixture(f).CheckpointState())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(`{"next_seq":5,"enqueued":5,"delivered":0,"subscribers":[{"contig":0},{"contig":0}]}`))
	f.Add([]byte(`{"next_seq":3,"enqueued":2,"delivered":2,"subscribers":[{"contig":1,"sparse":[3]},{"contig":2}],"delayed":[{"sample":{"workload_id":"w"},"seq":2,"after":1}]}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var st State
		if json.Unmarshal(data, &st) != nil {
			return
		}
		want, err := json.Marshal(st)
		if err != nil {
			return
		}
		r := New()
		r.Subscribe(&recordingTuner{})
		r.Subscribe(&recordingTuner{})
		before := r.CheckpointState()
		if err := r.RestoreCheckpointState(st); err != nil {
			if got := r.CheckpointState(); !reflect.DeepEqual(got, before) {
				t.Fatalf("rejected restore (%v) mutated the state: %+v", err, got)
			}
			return
		}
		got, err := json.Marshal(r.CheckpointState())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("restored state does not round-trip:\n got %s\nwant %s", got, want)
		}
		observeAndFlushWithin(t, r, 5*time.Second)
		if n := r.Pending(); n != 0 {
			t.Fatalf("Flush after a restore left %d samples held", n)
		}
	})
}
