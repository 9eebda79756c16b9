package repository

import (
	"testing"

	"autodbaas/internal/knobs"
	"autodbaas/internal/tuner"
)

type countingTuner struct {
	engine   knobs.Engine
	observed int
}

func (c *countingTuner) Name() string { return "counting" }
func (c *countingTuner) Observe(s tuner.Sample) error {
	if s.Engine != c.engine {
		return tuner.ErrNotTrained // any error: engine mismatch
	}
	c.observed++
	return nil
}
func (c *countingTuner) Recommend(tuner.Request) (tuner.Recommendation, error) {
	return tuner.Recommendation{}, tuner.ErrNotTrained
}

func TestObserveStoresAndFansOut(t *testing.T) {
	r := New()
	pg := &countingTuner{engine: knobs.Postgres}
	my := &countingTuner{engine: knobs.MySQL}
	r.Subscribe(pg)
	r.Subscribe(my)
	if err := r.Observe(tuner.Sample{WorkloadID: "w", Engine: knobs.Postgres}); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("len = %d", r.Len())
	}
	if pg.observed != 1 {
		t.Fatal("postgres tuner did not receive the sample")
	}
	// The mysql tuner rejects it; the repository must not fail.
	if my.observed != 0 {
		t.Fatal("mysql tuner accepted a postgres sample")
	}
	if got := r.Store().Samples("w"); len(got) != 1 {
		t.Fatalf("stored = %d", len(got))
	}
}

func TestSubscribeAfterSamplesOnlySeesNew(t *testing.T) {
	r := New()
	r.Observe(tuner.Sample{WorkloadID: "old", Engine: knobs.Postgres})
	late := &countingTuner{engine: knobs.Postgres}
	r.Subscribe(late)
	r.Observe(tuner.Sample{WorkloadID: "new", Engine: knobs.Postgres})
	r.Flush()
	if late.observed != 1 {
		t.Fatalf("late subscriber observed %d", late.observed)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	src := New()
	for i := 0; i < 5; i++ {
		s := tuner.Sample{WorkloadID: "w1", Engine: knobs.Postgres, Objective: float64(i * 10)}
		if err := s.SetMaps(knobs.Config{"work_mem": float64(i)}, nil); err != nil {
			t.Fatal(err)
		}
		src.Observe(s)
	}
	src.Observe(tuner.Sample{WorkloadID: "w2", Engine: knobs.Postgres, Objective: 7})

	section, err := src.Save()
	if err != nil {
		t.Fatal(err)
	}
	dst := New()
	n, err := dst.LoadQuiet(section)
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 || dst.Len() != 6 {
		t.Fatalf("loaded %d, stored %d", n, dst.Len())
	}
	if ws := dst.Store().Workloads(); len(ws) != 2 || ws[0] != "w1" || ws[1] != "w2" {
		t.Fatalf("workloads = %v", ws)
	}
	got := dst.Store().Samples("w1")
	if len(got) != 5 || configOf(t, got[3])["work_mem"] != 3 || got[3].Objective != 30 {
		t.Fatalf("w1 samples = %+v", got)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	r := New()
	if _, err := r.LoadQuiet([]byte("not json at all")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestLoadQuietSkipsFanOut pins the contract checkpoint restore relies
// on: LoadQuiet only rebuilds the store — subscriber state restored
// from a snapshot must not see the samples a second time.
func TestLoadQuietSkipsFanOut(t *testing.T) {
	src := New()
	for i := 0; i < 4; i++ {
		src.Observe(tuner.Sample{WorkloadID: "w", Engine: knobs.Postgres, Objective: float64(i)})
	}
	section, err := src.Save()
	if err != nil {
		t.Fatal(err)
	}

	quiet := New()
	qsub := &countingTuner{engine: knobs.Postgres}
	quiet.Subscribe(qsub)
	n, err := quiet.LoadQuiet(section)
	if err != nil {
		t.Fatal(err)
	}
	quiet.Flush()
	if n != 4 || quiet.Len() != 4 {
		t.Fatalf("LoadQuiet loaded %d, stored %d, want 4", n, quiet.Len())
	}
	if qsub.observed != 0 {
		t.Fatalf("LoadQuiet delivered %d samples to the subscriber, want 0", qsub.observed)
	}
	if got := quiet.Store().Samples("w"); len(got) != 4 || got[2].Objective != 2 {
		t.Fatalf("store not rebuilt: %+v", got)
	}
}
