package bo

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"autodbaas/internal/knobs"
	"autodbaas/internal/metrics"
	"autodbaas/internal/tuner"
)

// synthSample builds a deterministic training sample for workload wid.
func synthSample(kcat *knobs.Catalog, mcat *metrics.Catalog, rng *rand.Rand, wid string, i int) tuner.Sample {
	cfg := kcat.DefaultConfig()
	for _, n := range kcat.TunableNames() {
		d := kcat.Def(n)
		cfg[n] = d.Min + rng.Float64()*(d.Max-d.Min)
	}
	snap := make(metrics.Snapshot, mcat.Len())
	for _, name := range mcat.Names() {
		snap[name] = rng.Float64() * 1000
	}
	return tuner.Sample{
		WorkloadID: wid,
		Engine:     knobs.Postgres,
		Config:     cfg,
		Metrics:    snap,
		Objective:  500 + rng.Float64()*2000,
		Quality:    true,
		Window:     5 * time.Minute,
		At:         time.Date(2021, 3, 23, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * 5 * time.Minute),
	}
}

// TestRestoreIgnoresFitCacheFields: snapshots written while the tuner
// still kept its last GP fit between recommendations carry fit_key,
// fit_ymax, fit_model and fit_training. Such a snapshot must still
// restore, and the restored tuner must recommend exactly what one
// restored from the same state without those fields recommends.
func TestRestoreIgnoresFitCacheFields(t *testing.T) {
	opts := Options{Engine: knobs.Postgres, Candidates: 40, MaxSamplesPerFit: 30, UCBBeta: 0.5, TopKnobs: 6, Seed: 7}
	src, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	var samples []tuner.Sample
	for i := 0; i < 20; i++ {
		s := synthSample(src.kcat, src.mcat, rng, "wl-a", i)
		if err := src.Observe(s); err != nil {
			t.Fatal(err)
		}
		samples = append(samples, s)
	}
	last := samples[len(samples)-1]
	cls := knobs.Memory
	req := tuner.Request{WorkloadID: "wl-a", Metrics: last.Metrics, Current: last.Config, ThrottleClass: &cls}
	if _, err := src.Recommend(req); err != nil {
		t.Fatal(err)
	}

	plain, err := json.Marshal(src.CheckpointState())
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(plain, &doc); err != nil {
		t.Fatal(err)
	}
	doc["fit_key"] = "wl-a\x00wl-a\x00" + "shared_buffers,work_mem"
	doc["fit_ymax"] = 2500.0
	doc["fit_model"] = []byte("GPR2\x00\x00\x00\x02 older binary model")
	doc["fit_training"] = samples[:8]
	legacy, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}

	restore := func(blob []byte) tuner.Recommendation {
		t.Helper()
		var st State
		if err := json.Unmarshal(blob, &st); err != nil {
			t.Fatalf("decode: %v", err)
		}
		tn, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := tn.RestoreCheckpointState(st); err != nil {
			t.Fatalf("restore: %v", err)
		}
		rec, err := tn.Recommend(req)
		if err != nil {
			t.Fatal(err)
		}
		rec.Cost = 0 // wall-clock
		return rec
	}
	want, got := restore(plain), restore(legacy)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot with fit-cache fields recommends differently:\n  with:    %+v\n  without: %+v", got, want)
	}
}
