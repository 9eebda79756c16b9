package tuner

import (
	"reflect"
	"testing"
	"time"

	"autodbaas/internal/knobs"
	"autodbaas/internal/metrics"
)

func TestStoreGrouping(t *testing.T) {
	s := NewStore()
	s.Add(Sample{WorkloadID: "w1", Objective: 1})
	s.Add(Sample{WorkloadID: "w2", Objective: 2})
	s.Add(Sample{WorkloadID: "w1", Objective: 3})
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	ws := s.Workloads()
	if len(ws) != 2 || ws[0] != "w1" || ws[1] != "w2" {
		t.Fatalf("workloads = %v", ws)
	}
	if got := s.Samples("w1"); len(got) != 2 || got[1].Objective != 3 {
		t.Fatalf("w1 samples = %v", got)
	}
	var objs []float64
	s.Range(func(sm *Sample) { objs = append(objs, sm.Objective) })
	if want := []float64{1, 3, 2}; !reflect.DeepEqual(objs, want) {
		t.Fatalf("Range visits objectives %v, want store order %v", objs, want)
	}
}

func TestStoreSamplesAreCopies(t *testing.T) {
	s := NewStore()
	s.Add(Sample{WorkloadID: "w", Objective: 1})
	got := s.Samples("w")
	got[0].Objective = 99
	if s.Samples("w")[0].Objective != 1 {
		t.Fatal("Samples aliases internal storage")
	}
}

func TestStoreEmptyWorkload(t *testing.T) {
	s := NewStore()
	if got := s.Samples("nope"); len(got) != 0 {
		t.Fatalf("missing workload returned %v", got)
	}
}

func TestSampleFieldsRoundTrip(t *testing.T) {
	at := time.Date(2021, 3, 23, 9, 0, 0, 0, time.UTC)
	s := Sample{
		WorkloadID: "prod-1",
		Engine:     knobs.Postgres,
		Objective:  123,
		Quality:    true,
		At:         at,
	}
	if err := s.SetMaps(knobs.Config{"work_mem": 1}, metrics.Snapshot{"xact_commit": 5}); err != nil {
		t.Fatal(err)
	}
	cfg, m, err := s.Maps()
	if err != nil || cfg["work_mem"] != 1 || len(cfg) != 1 || m["xact_commit"] != 5 || len(m) != 1 || !s.Quality {
		t.Fatalf("fields lost: %v %v %v", cfg, m, err)
	}
}

// viewObjectives lists the objectives a view returned.
func viewObjectives(v []*Sample) []float64 {
	out := make([]float64, len(v))
	for i, s := range v {
		out[i] = s.Objective
	}
	return out
}

// TestStoreViewCapsOnlyOrderedWorkloads: View filters by engine, keeps
// store order, caps at the last max samples of the engine while the
// workload's At values arrived in order (ties included), returns every
// sample once one arrived out of order, and aliases the stored samples.
func TestStoreViewCapsOnlyOrderedWorkloads(t *testing.T) {
	base := time.Date(2021, 3, 23, 0, 0, 0, 0, time.UTC)
	s := NewStore()
	for i := 0; i < 6; i++ {
		eng := knobs.Postgres
		if i%3 == 2 {
			eng = knobs.MySQL
		}
		s.Add(Sample{WorkloadID: "w", Engine: eng, Objective: float64(i), At: base.Add(time.Duration(i/2) * time.Minute)})
	}
	if got := viewObjectives(s.View(nil, "w", knobs.Postgres, 0)); !reflect.DeepEqual(got, []float64{0, 1, 3, 4}) {
		t.Fatalf("uncapped view = %v", got)
	}
	if got := viewObjectives(s.View(nil, "w", knobs.Postgres, 3)); !reflect.DeepEqual(got, []float64{1, 3, 4}) {
		t.Fatalf("capped view = %v", got)
	}
	dst := []*Sample{{Objective: -1}}
	if got := viewObjectives(s.View(dst, "w", knobs.MySQL, 1)); !reflect.DeepEqual(got, []float64{-1, 5}) {
		t.Fatalf("view appended to dst = %v", got)
	}
	if v := s.View(nil, "w", knobs.Postgres, 1); v[0] != s.samples["w"].at(4) {
		t.Fatal("view copied the sample instead of pointing at the stored one")
	}
	s.Add(Sample{WorkloadID: "w", Engine: knobs.Postgres, Objective: 6, At: base})
	if got := viewObjectives(s.View(nil, "w", knobs.Postgres, 2)); !reflect.DeepEqual(got, []float64{0, 1, 3, 4, 6}) {
		t.Fatalf("view of an out-of-order workload = %v, want every sample", got)
	}
	if got := s.View(nil, "none", knobs.Postgres, 2); len(got) != 0 {
		t.Fatalf("missing workload viewed as %v", got)
	}
}

// TestStoreViewPointersNeverMove: a View pointer taken before many
// Adds to the same workload, and to others, still points at the same
// sample, at the same address, afterwards: chunks are never
// reallocated.
func TestStoreViewPointersNeverMove(t *testing.T) {
	s := NewStore()
	s.Add(Sample{WorkloadID: "w", Engine: knobs.Postgres, Objective: -1})
	before := s.View(nil, "w", knobs.Postgres, 0)[0]
	for i := 0; i < 1000; i++ {
		s.Add(Sample{WorkloadID: []string{"w", "x"}[i%2], Engine: knobs.Postgres, Objective: float64(i)})
	}
	after := s.View(nil, "w", knobs.Postgres, 0)
	if len(after) != 501 || after[0] != before || before.Objective != -1 {
		t.Fatalf("after 1000 Adds the first sample is at %p (objective %v), was %p; view holds %d", after[0], after[0].Objective, before, len(after))
	}
	for i, sm := range after[1:] {
		if sm.Objective != float64(2*i) {
			t.Fatalf("view[%d] has objective %v, want %v", i+1, sm.Objective, 2*i)
		}
	}
}
