package bo

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
	"time"

	"autodbaas/internal/knobs"
	"autodbaas/internal/metrics"
	"autodbaas/internal/repository"
	"autodbaas/internal/simdb"
	"autodbaas/internal/tuner"
	"autodbaas/internal/workload"
)

// runConfig provisions a fresh engine, applies cfg, executes gen for a
// few windows and returns the resulting training sample.
func runConfig(t *testing.T, gen workload.Generator, cfg knobs.Config, seed int64) tuner.Sample {
	t.Helper()
	e, err := simdb.NewEngine(simdb.Options{
		Engine:      knobs.Postgres,
		Resources:   simdb.Resources{MemoryBytes: 16 * workload.GiB, VCPU: 4, DiskIOPS: 6000, DiskSSD: true},
		DBSizeBytes: gen.DBSizeBytes(),
		Seed:        seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg != nil {
		if err := e.ApplyConfig(cfg, simdb.ApplyReload); err != nil {
			t.Fatal(err)
		}
	}
	before := e.Snapshot()
	var last simdb.WindowStats
	for i := 0; i < 3; i++ {
		last, err = e.RunWindow(gen, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
	}
	return withMaps(tuner.Sample{
		WorkloadID: gen.Name(),
		Engine:     knobs.Postgres,
		Objective:  last.Achieved,
		Quality:    true,
		At:         e.Now(),
	}, e.Config(), metrics.Delta(before, e.Snapshot()))
}

// withMaps returns s carrying cfg and m, in map form, as its vectors.
func withMaps(s tuner.Sample, cfg knobs.Config, m metrics.Snapshot) tuner.Sample {
	if err := s.SetMaps(cfg, m); err != nil {
		panic(err)
	}
	return s
}

// configOf and metricsOf return a sample's vectors in map form.
func configOf(s tuner.Sample) knobs.Config {
	cfg, _, err := s.Maps()
	if err != nil {
		panic(err)
	}
	return cfg
}

func metricsOf(s tuner.Sample) metrics.Snapshot {
	_, m, err := s.Maps()
	if err != nil {
		panic(err)
	}
	return m
}

// newBound builds a tuner subscribed to a fresh central repository, the
// path every training sample takes to a BO tuner. Upload through the
// repository and Flush it before the tuner reads.
func newBound(t *testing.T, opts Options) (*Tuner, *repository.Repository) {
	t.Helper()
	tn, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	repo := repository.New()
	repo.Subscribe(tn)
	return tn, repo
}

// randomConfig draws a random tunable config.
func randomConfig(rng *rand.Rand, kcat *knobs.Catalog) knobs.Config {
	names := kcat.TunableNames()
	vec := make([]float64, len(names))
	for i := range vec {
		vec[i] = rng.Float64()
	}
	return kcat.Denormalize(vec, names)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{Engine: "oracle"}); err == nil {
		t.Fatal("unknown engine accepted")
	}
	tn, err := New(DefaultOptions(knobs.Postgres))
	if err != nil {
		t.Fatal(err)
	}
	if tn.Name() != "ottertune-bo" {
		t.Fatalf("name = %s", tn.Name())
	}
}

func TestObserveRejectsWrongEngine(t *testing.T) {
	tn, _ := newBound(t, DefaultOptions(knobs.Postgres))
	if err := tn.Observe(tuner.Sample{Engine: knobs.MySQL}); err == nil {
		t.Fatal("mysql sample accepted by postgres tuner")
	}
}

// TestObserveNeedsABoundStore: a tuner trains from the store of the
// repository that subscribed it, so a sample delivered before any
// repository bound it has nowhere to be read from.
func TestObserveNeedsABoundStore(t *testing.T) {
	tn, _ := New(DefaultOptions(knobs.Postgres))
	if err := tn.Observe(tuner.Sample{WorkloadID: "w", Engine: knobs.Postgres}); err == nil {
		t.Fatal("unbound tuner accepted a sample")
	}
	if _, _, ok := tn.MapWorkload(metrics.Snapshot{}); ok {
		t.Fatal("rejected sample reached the workload means")
	}
}

func TestRecommendBeforeTraining(t *testing.T) {
	tn, _ := New(DefaultOptions(knobs.Postgres))
	_, err := tn.Recommend(tuner.Request{Engine: knobs.Postgres, WorkloadID: "w"})
	if !errors.Is(err, tuner.ErrNotTrained) {
		t.Fatalf("err = %v", err)
	}
}

func TestWorkloadMappingSeparatesWorkloads(t *testing.T) {
	tn, repo := newBound(t, DefaultOptions(knobs.Postgres))
	tpcc := workload.NewTPCC(26*workload.GiB, 3300)
	tpch := workload.NewTPCH(24*workload.GiB, 2)
	rng := rand.New(rand.NewSource(1))
	kcat := knobs.PostgresCatalog()
	for i := 0; i < 6; i++ {
		repo.Observe(runConfig(t, tpcc, randomConfig(rng, kcat), int64(i)))
		repo.Observe(runConfig(t, tpch, randomConfig(rng, kcat), int64(100+i)))
	}
	repo.Flush()
	probe := runConfig(t, tpcc, nil, 999)
	id, _, ok := tn.MapWorkload(metricsOf(probe))
	if !ok || id != "tpcc" {
		t.Fatalf("TPCC probe mapped to %q (ok=%v)", id, ok)
	}
	probe2 := runConfig(t, tpch, nil, 998)
	id2, _, _ := tn.MapWorkload(metricsOf(probe2))
	if id2 != "tpch" {
		t.Fatalf("TPCH probe mapped to %q", id2)
	}
}

// TestMappingBuffersGrowGeometrically: workload mapping's row buffers
// grow geometrically, so a fleet that adds donors one at a time
// reallocates them O(log n) times, not once per donor.
func TestMappingBuffersGrowGeometrically(t *testing.T) {
	const donors = 512
	tn, repo := newBound(t, DefaultOptions(knobs.Postgres))
	names := metrics.PostgresCatalog().Names()
	rng := rand.New(rand.NewSource(5))
	target := metrics.Snapshot{}
	for _, n := range names {
		target[n] = rng.Float64()
	}
	var reallocs, caps [4]int
	for i := 0; i < donors; i++ {
		m := metrics.Snapshot{}
		for _, n := range names {
			m[n] = rng.Float64() * float64(i+1)
		}
		repo.Observe(withMaps(tuner.Sample{WorkloadID: fmt.Sprintf("w%03d", i), Engine: knobs.Postgres}, nil, m))
		repo.Flush()
		if _, _, ok := tn.MapWorkload(target); !ok {
			t.Fatalf("donor %d: no workload mapped", i)
		}
		for j, c := range []int{cap(tn.mapBuf), cap(tn.mapRows), cap(tn.projBuf), cap(tn.projRows)} {
			if c != caps[j] {
				reallocs[j], caps[j] = reallocs[j]+1, c
			}
		}
	}
	limit := 2 * bits.Len(donors)
	for j, name := range []string{"mapBuf", "mapRows", "projBuf", "projRows"} {
		if reallocs[j] > limit {
			t.Errorf("%d donors added one at a time reallocated %s %d times, want at most %d", donors, name, reallocs[j], limit)
		}
	}
}

func TestRankKnobsFindsInfluentialKnob(t *testing.T) {
	tn, _ := New(DefaultOptions(knobs.Postgres))
	kcat := knobs.PostgresCatalog()
	rng := rand.New(rand.NewSource(2))
	// Synthetic: objective responds only to work_mem (log-normalized).
	var samples []tuner.Sample
	for i := 0; i < 80; i++ {
		cfg := randomConfig(rng, kcat)
		u := kcat.Normalize(cfg, []string{"work_mem"})[0]
		samples = append(samples, withMaps(tuner.Sample{
			Engine: knobs.Postgres, WorkloadID: "synthetic",
			Objective: 1000*u + rng.NormFloat64()*5,
		}, cfg, nil))
	}
	ranked, err := tn.RankKnobs(samples)
	if err != nil {
		t.Fatal(err)
	}
	if ranked[0] != "work_mem" {
		t.Fatalf("top knob = %s, want work_mem (full ranking: %v)", ranked[0], ranked[:3])
	}
	if _, err := tn.RankKnobs(samples[:2]); !errors.Is(err, tuner.ErrNotTrained) {
		t.Fatal("tiny sample set should be ErrNotTrained")
	}
}

func TestRecommendImprovesThroughput(t *testing.T) {
	// Closed loop: train on random configs of a spill-prone workload,
	// then verify the recommendation beats the default configuration.
	// TopKnobs=0: search the full tunable space — with a knob ranking
	// that misses a load-bearing knob, the recommendation would freeze
	// it at its (bad) current value.
	tn, repo := newBound(t, Options{Engine: knobs.Postgres, MaxSamplesPerFit: 200, Candidates: 800, UCBBeta: 0.5, TopKnobs: 0, Seed: 3})
	// TPCH is capacity-bound: throughput responds to work_mem (spills),
	// parallel workers and prefetch depth — the knobs under search.
	gen := workload.NewTPCH(24*workload.GiB, 2)
	rng := rand.New(rand.NewSource(3))
	kcat := knobs.PostgresCatalog()
	for i := 0; i < 30; i++ {
		repo.Observe(runConfig(t, gen, randomConfig(rng, kcat), int64(i)))
	}
	repo.Flush()
	probe := runConfig(t, gen, nil, 777)
	rec, err := tn.Recommend(tuner.Request{
		InstanceID:  "db-1",
		Engine:      knobs.Postgres,
		WorkloadID:  gen.Name(),
		Metrics:     metricsOf(probe),
		Current:     configOf(probe),
		MemoryBytes: 16 * workload.GiB,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.TrainedOn < 4 || rec.Cost <= 0 {
		t.Fatalf("recommendation metadata: %+v", rec)
	}
	tuned := runConfig(t, gen, rec.Config, 777)
	if !(tuned.Objective > probe.Objective*1.02) {
		t.Fatalf("tuned throughput %.0f not above default %.0f", tuned.Objective, probe.Objective)
	}
}

func TestRecommendRespectsMemoryBudget(t *testing.T) {
	tn, repo := newBound(t, Options{Engine: knobs.Postgres, Seed: 4, Candidates: 100})
	kcat := knobs.PostgresCatalog()
	rng := rand.New(rand.NewSource(4))
	gen := workload.NewTPCC(10*workload.GiB, 2000)
	for i := 0; i < 8; i++ {
		repo.Observe(runConfig(t, gen, randomConfig(rng, kcat), int64(i)))
	}
	repo.Flush()
	mem := 2.0 * workload.GiB
	rec, err := tn.Recommend(tuner.Request{
		Engine: knobs.Postgres, WorkloadID: gen.Name(),
		Metrics: metrics.Snapshot{}, MemoryBytes: mem,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := kcat.CheckMemoryBudget(rec.Config, knobs.MemoryBudget{TotalBytes: mem, WorkMemSessions: 8}); err != nil {
		t.Fatalf("recommendation busts a 2GB instance: %v", err)
	}
}

func TestThrottleClassNarrowsSearch(t *testing.T) {
	tn, repo := newBound(t, Options{Engine: knobs.Postgres, Seed: 5, Candidates: 100})
	kcat := knobs.PostgresCatalog()
	rng := rand.New(rand.NewSource(5))
	gen := workload.NewTPCC(10*workload.GiB, 2000)
	for i := 0; i < 8; i++ {
		repo.Observe(runConfig(t, gen, randomConfig(rng, kcat), int64(i)))
	}
	repo.Flush()
	cls := knobs.BgWriter
	cur := kcat.DefaultConfig()
	rec, err := tn.Recommend(tuner.Request{
		Engine: knobs.Postgres, WorkloadID: gen.Name(),
		Metrics: metrics.Snapshot{}, Current: cur, ThrottleClass: &cls,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Knobs outside the throttled class must stay at their current values.
	for _, n := range kcat.NamesByClass(knobs.Memory) {
		if rec.Config[n] != cur[n] {
			t.Fatalf("memory knob %s changed by a bgwriter-scoped recommendation", n)
		}
	}
	changed := false
	for _, n := range kcat.NamesByClass(knobs.BgWriter) {
		if rec.Config[n] != cur[n] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("bgwriter-scoped recommendation changed nothing")
	}
}

func TestBgWriterBaselineFromMappedWorkload(t *testing.T) {
	tn, repo := newBound(t, DefaultOptions(knobs.Postgres))
	// Cold tuner: no baseline available yet.
	if _, _, ok := tn.BgWriterBaseline(metrics.Snapshot{}); ok {
		t.Fatal("cold tuner produced a baseline")
	}
	gen := workload.NewTPCC(26*workload.GiB, 3300)
	rng := rand.New(rand.NewSource(8))
	kcat := knobs.PostgresCatalog()
	for i := 0; i < 6; i++ {
		s := runConfig(t, gen, randomConfig(rng, kcat), int64(i))
		s.Window = 3 * time.Minute
		if err := repo.Observe(s); err != nil {
			t.Fatal(err)
		}
	}
	repo.Flush()
	probe := runConfig(t, gen, nil, 99)
	rate, lat, ok := tn.BgWriterBaseline(metricsOf(probe))
	if !ok {
		t.Fatal("trained tuner produced no baseline")
	}
	if rate < 0 || lat <= 0 {
		t.Fatalf("baseline = %g ckpt/s at %g ms", rate, lat)
	}
}
