package repository

import (
	"fmt"
	"reflect"
	"testing"

	"autodbaas/internal/knobs"
	"autodbaas/internal/metrics"
	"autodbaas/internal/tuner"
)

// simSample builds one quality sample for wid whose metric vector sits
// at `level` on every metric.
func simSample(t *testing.T, wid string, level, objective float64) tuner.Sample {
	t.Helper()
	mcat, err := metrics.CatalogFor("postgres")
	if err != nil {
		t.Fatal(err)
	}
	snap := make(metrics.Snapshot, mcat.Len())
	for i, name := range mcat.Names() {
		snap[name] = level + float64(i)
	}
	kcat, err := knobs.CatalogFor(knobs.Postgres)
	if err != nil {
		t.Fatal(err)
	}
	s := tuner.Sample{WorkloadID: wid, Engine: knobs.Postgres, Objective: objective, Quality: true}
	if err := s.SetMaps(kcat.DefaultConfig(), snap); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSimilarWorkloadsRanksByCentrality seeds three same-kind workloads —
// two near each other, one far outlier — and checks the ranking puts a
// central donor first and the outlier last, while filtering by suffix,
// engine, exclusion and minimum history.
func TestSimilarWorkloadsRanksByCentrality(t *testing.T) {
	r := New()
	defer r.Close()
	feed := func(wid string, level float64, n int) {
		for i := 0; i < n; i++ {
			if err := r.Observe(simSample(t, wid, level, 100)); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed("t1/db1/tpcc", 100, 4)
	feed("t2/db1/tpcc", 120, 4)
	feed("t3/db1/tpcc", 9000, 4) // outlier
	feed("t4/db1/ycsb", 100, 4)  // wrong workload kind
	feed("t5/db1/tpcc", 100, 1)  // too little history
	r.Flush()

	got := r.SimilarWorkloads("postgres", "tpcc", "new/db/tpcc", 3)
	ids := make([]string, len(got))
	for i, m := range got {
		ids[i] = m.WorkloadID
	}
	if len(got) != 3 {
		t.Fatalf("got %d matches (%v), want 3", len(got), ids)
	}
	if ids[2] != "t3/db1/tpcc" {
		t.Fatalf("outlier ranked %v, want last; order %v", ids[2], ids)
	}
	for _, m := range got {
		if m.Samples != 4 {
			t.Fatalf("match %s reports %d samples, want 4", m.WorkloadID, m.Samples)
		}
	}
	// Exclusion removes the target itself from its own donor set.
	excl := r.SimilarWorkloads("postgres", "tpcc", "t1/db1/tpcc", 3)
	for _, m := range excl {
		if m.WorkloadID == "t1/db1/tpcc" {
			t.Fatal("excluded workload returned as its own donor")
		}
	}
	// No candidates for an unknown kind or wrong engine.
	if got := r.SimilarWorkloads("postgres", "tpch", "x", 1); got != nil {
		t.Fatalf("unexpected donors for tpch: %v", got)
	}
	if got := r.SimilarWorkloads("mysql", "tpcc", "x", 1); got != nil {
		t.Fatalf("unexpected mysql donors: %v", got)
	}
}

// TestSimilarWorkloadsDeterministic: identical store state must produce
// an identical ranking, including through tie-breaks.
func TestSimilarWorkloadsDeterministic(t *testing.T) {
	build := func() *Repository {
		r := New()
		for w := 0; w < 6; w++ {
			wid := fmt.Sprintf("t%d/db/tpcc", w)
			for i := 0; i < 3; i++ {
				if err := r.Observe(simSample(t, wid, 100, 50)); err != nil { // all identical: pure tie-break
					t.Fatal(err)
				}
			}
		}
		r.Flush()
		return r
	}
	r1, r2 := build(), build()
	defer r1.Close()
	defer r2.Close()
	g1 := r1.SimilarWorkloads("postgres", "tpcc", "x", 2)
	g2 := r2.SimilarWorkloads("postgres", "tpcc", "x", 2)
	if !reflect.DeepEqual(g1, g2) {
		t.Fatalf("ranking not deterministic:\n%v\nvs\n%v", g1, g2)
	}
	if len(g1) != 6 {
		t.Fatalf("got %d matches, want 6", len(g1))
	}
	for i := 1; i < len(g1); i++ {
		if g1[i-1].Distance == g1[i].Distance && g1[i-1].WorkloadID >= g1[i].WorkloadID {
			t.Fatalf("tie not broken by workload ID: %v", g1)
		}
	}
}

// TestBestSample picks the highest-objective sample across the whole
// history — including non-quality windows, whose tuned configs are
// exactly what a warm start wants to copy.
func TestBestSample(t *testing.T) {
	r := New()
	defer r.Close()
	s1 := simSample(t, "w/tpcc", 100, 10)
	s2 := simSample(t, "w/tpcc", 100, 99)
	s3 := simSample(t, "w/tpcc", 100, 500)
	s3.Quality = false // tuned-and-healthy window: best objective
	for _, s := range []tuner.Sample{s1, s2, s3} {
		if err := r.Observe(s); err != nil {
			t.Fatal(err)
		}
	}
	r.Flush()
	best, ok := r.BestSample("w/tpcc")
	if !ok || best.Objective != 500 {
		t.Fatalf("best = %+v ok=%v, want objective 500", best, ok)
	}
	if _, ok := r.BestSample("missing"); ok {
		t.Fatal("best sample for unknown workload")
	}
}
