package rl

import (
	"errors"
	"math/rand"
	"testing"

	"autodbaas/internal/knobs"
	"autodbaas/internal/metrics"
	"autodbaas/internal/tuner"
)

func snap(qps float64) metrics.Snapshot {
	return metrics.Snapshot{"throughput_qps": qps, "xact_commit": qps * 60, "blks_hit": qps * 100}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{Engine: "oracle"}); err == nil {
		t.Fatal("unknown engine accepted")
	}
	tn, err := New(DefaultOptions(knobs.Postgres))
	if err != nil {
		t.Fatal(err)
	}
	if tn.Name() != "cdbtune-rl" {
		t.Fatalf("name = %s", tn.Name())
	}
}

func TestObserveRejectsWrongEngine(t *testing.T) {
	tn, _ := New(DefaultOptions(knobs.Postgres))
	if err := tn.Observe(tuner.Sample{Engine: knobs.MySQL}); err == nil {
		t.Fatal("wrong-engine sample accepted")
	}
}

func TestRecommendBeforeTraining(t *testing.T) {
	tn, _ := New(DefaultOptions(knobs.Postgres))
	if _, err := tn.Recommend(tuner.Request{Engine: knobs.Postgres}); !errors.Is(err, tuner.ErrNotTrained) {
		t.Fatalf("err = %v", err)
	}
}

func TestRecommendIsValidAndCheap(t *testing.T) {
	tn, _ := New(DefaultOptions(knobs.Postgres))
	kcat := knobs.PostgresCatalog()
	rng := rand.New(rand.NewSource(1))
	names := kcat.TunableNames()
	for i := 0; i < 50; i++ {
		vec := make([]float64, len(names))
		for d := range vec {
			vec[d] = rng.Float64()
		}
		tn.Observe(pgSample("w", kcat.Denormalize(vec, names), snap(100+rng.Float64()*100), 100+rng.Float64()*100))
	}
	rec, err := tn.Recommend(tuner.Request{
		Engine: knobs.Postgres, WorkloadID: "w", Metrics: snap(150),
		MemoryBytes: 8 * 1024 * 1024 * 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := kcat.Validate(rec.Config); err != nil {
		t.Fatalf("invalid recommendation: %v", err)
	}
	if err := kcat.CheckMemoryBudget(rec.Config, knobs.MemoryBudget{TotalBytes: 8 * 1024 * 1024 * 1024, WorkMemSessions: 8}); err != nil {
		t.Fatalf("budget violated: %v", err)
	}
	if rec.Cost <= 0 || rec.TrainedOn != 50 {
		t.Fatalf("metadata: %+v", rec)
	}
}

func TestTransitionsAndTrainingHappen(t *testing.T) {
	opts := DefaultOptions(knobs.Postgres)
	opts.BatchSize = 8
	tn, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	kcat := knobs.PostgresCatalog()
	rng := rand.New(rand.NewSource(2))
	names := kcat.TunableNames()
	for i := 0; i < 40; i++ {
		vec := make([]float64, len(names))
		for d := range vec {
			vec[d] = rng.Float64()
		}
		tn.Observe(pgSample("w", kcat.Denormalize(vec, names), snap(float64(100+i)), float64(100+i)))
	}
	if tn.Observed() != 40 {
		t.Fatalf("observed = %d", tn.Observed())
	}
	if tn.TrainSteps() == 0 {
		t.Fatal("no DDPG updates ran despite full replay buffer")
	}
}

func TestPolicyLearnsRewardDirection(t *testing.T) {
	// A one-knob bandit: reward is higher when knob 0's normalized value
	// is high. After training, the actor should emit a high value.
	opts := Options{Engine: knobs.Postgres, Hidden: 16, ReplayCap: 1024,
		BatchSize: 16, Gamma: 0.0, Tau: 0.05, ActorLR: 5e-3, CriticLR: 5e-3, Noise: 0, Seed: 3}
	tn, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	kcat := knobs.PostgresCatalog()
	names := kcat.TunableNames()
	rng := rand.New(rand.NewSource(3))
	st := snap(100)
	prevObj := 100.0
	vec := make([]float64, len(names))
	for i := 0; i < 600; i++ {
		for d := range vec {
			vec[d] = rng.Float64()
		}
		// Objective proportional to knob 0's setting.
		obj := 50 + 200*vec[0]
		tn.Observe(pgSample("w", kcat.Denormalize(vec, names), st, obj))
		prevObj = obj
	}
	_ = prevObj
	rec, err := tn.Recommend(tuner.Request{Engine: knobs.Postgres, WorkloadID: "w", Metrics: st})
	if err != nil {
		t.Fatal(err)
	}
	u := kcat.Normalize(rec.Config, names[:1])[0]
	if u < 0.5 {
		t.Fatalf("policy emits %.2f for the reward-bearing knob, want > 0.5", u)
	}
}

func TestReplayBufferBounded(t *testing.T) {
	opts := DefaultOptions(knobs.Postgres)
	opts.ReplayCap = 16
	opts.BatchSize = 4
	tn, _ := New(opts)
	kcat := knobs.PostgresCatalog()
	for i := 0; i < 100; i++ {
		tn.Observe(pgSample("w", kcat.DefaultConfig(), snap(float64(i)), float64(i)))
	}
	tn.mu.Lock()
	n := len(tn.replay)
	tn.mu.Unlock()
	if n > 16 {
		t.Fatalf("replay grew to %d", n)
	}
}

func TestSeparateEpisodesPerWorkload(t *testing.T) {
	tn, _ := New(DefaultOptions(knobs.Postgres))
	kcat := knobs.PostgresCatalog()
	cfg := kcat.DefaultConfig()
	tn.Observe(pgSample("a", cfg, snap(10), 10))
	tn.Observe(pgSample("b", cfg, snap(20), 20))
	tn.mu.Lock()
	transitions := len(tn.replay)
	episodes := len(tn.episodes)
	tn.mu.Unlock()
	if transitions != 0 {
		t.Fatalf("cross-workload transition built: %d", transitions)
	}
	if episodes != 2 {
		t.Fatalf("episodes = %d", episodes)
	}
}

// pgSample builds a Postgres training sample for workload w.
func pgSample(w string, cfg knobs.Config, m metrics.Snapshot, objective float64) tuner.Sample {
	s := tuner.Sample{Engine: knobs.Postgres, WorkloadID: w, Objective: objective}
	if err := s.SetMaps(cfg, m); err != nil {
		panic(err)
	}
	return s
}
