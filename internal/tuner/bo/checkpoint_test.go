package bo

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"autodbaas/internal/knobs"
	"autodbaas/internal/metrics"
	"autodbaas/internal/obs"
	"autodbaas/internal/repository"
	"autodbaas/internal/tuner"
)

// synthSample builds a deterministic PostgreSQL training sample for
// workload wid.
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
	return withMaps(tuner.Sample{
		WorkloadID: wid,
		Engine:     kcat.Engine,
		Objective:  500 + rng.Float64()*2000,
		Quality:    true,
		Window:     5 * time.Minute,
		At:         time.Date(2021, 3, 23, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * 5 * time.Minute),
	}, cfg, snap)
}

// TestRestoreIgnoresFitCacheFields: older snapshots carry fields the
// tuner no longer keeps: its last GP fit (fit_key, fit_ymax, fit_model,
// fit_training) and its private copy of the samples (store), which now
// come from the repository's store. Such snapshots must still restore,
// and the restored tuner must recommend exactly what one restored from
// the same state without those fields recommends.
func TestRestoreIgnoresFitCacheFields(t *testing.T) {
	opts := Options{Engine: knobs.Postgres, Candidates: 40, MaxSamplesPerFit: 30, UCBBeta: 0.5, TopKnobs: 6, Seed: 7}
	src, repo := newBound(t, opts)
	rng := rand.New(rand.NewSource(13))
	var samples []tuner.Sample
	for i := 0; i < 20; i++ {
		s := synthSample(src.kcat, src.mcat, rng, "wl-a", i)
		if err := repo.Observe(s); err != nil {
			t.Fatal(err)
		}
		samples = append(samples, s)
	}
	repo.Flush()
	last := samples[len(samples)-1]
	cls := knobs.Memory
	req := tuner.Request{WorkloadID: "wl-a", Metrics: metricsOf(last), Current: configOf(last), ThrottleClass: &cls}
	if _, err := src.Recommend(req); err != nil {
		t.Fatal(err)
	}

	store, err := repo.Save()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := json.Marshal(src.CheckpointState())
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(plain, []byte(`"store"`)) {
		t.Fatalf("tuner state still carries the samples: %s", plain)
	}
	legacy := func(fields map[string]any) []byte {
		var doc map[string]any
		if err := json.Unmarshal(plain, &doc); err != nil {
			t.Fatal(err)
		}
		for k, v := range fields {
			doc[k] = v
		}
		blob, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	fitCache := map[string]any{
		"fit_key":      "wl-a\x00wl-a\x00" + "shared_buffers,work_mem",
		"fit_ymax":     2500.0,
		"fit_model":    []byte("GPR2\x00\x00\x00\x02 older binary model"),
		"fit_training": samples[:8],
	}
	privateStore := map[string]any{
		"store": map[string]any{"order": []string{"wl-a"}, "samples": map[string][]tuner.Sample{"wl-a": samples}},
	}

	restore := func(blob []byte) tuner.Recommendation {
		t.Helper()
		var st State
		if err := json.Unmarshal(blob, &st); err != nil {
			t.Fatalf("decode: %v", err)
		}
		tn, repo := newBound(t, opts)
		if _, err := repo.LoadQuiet(store); err != nil {
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
	want := restore(plain)
	for name, blob := range map[string][]byte{
		"fit cache":     legacy(fitCache),
		"private store": legacy(privateStore),
	} {
		if got := restore(blob); !reflect.DeepEqual(got, want) {
			t.Fatalf("snapshot with %s fields recommends differently:\n  with:    %+v\n  without: %+v", name, got, want)
		}
	}
}

// TestTrainsOnlyOnOwnEngine: the repository stores every engine's
// samples, so a PostgreSQL tuner bound to it must train on, and map
// workloads over, its own engine's samples only — even when MySQL
// samples share the requested workload ID.
func TestTrainsOnlyOnOwnEngine(t *testing.T) {
	tn, repo := newBound(t, Options{Engine: knobs.Postgres, Candidates: 40, MaxSamplesPerFit: 100, UCBBeta: 0.5, Seed: 9})
	mykcat, mymcat := knobs.MySQLCatalog(), metrics.MySQLCatalog()
	rng := rand.New(rand.NewSource(17))
	mysql := func(wid string, i int) tuner.Sample {
		s := synthSample(mykcat, mymcat, rng, wid, i)
		s.Engine = knobs.MySQL
		return s
	}
	var last tuner.Sample
	for i := 0; i < 12; i++ {
		if i%2 == 0 {
			last = synthSample(tn.kcat, tn.mcat, rng, "shared", i)
			repo.Observe(last)
		}
		repo.Observe(mysql("shared", i))
		repo.Observe(mysql("mysql-only", i))
	}
	repo.Flush()
	rec, err := tn.Recommend(tuner.Request{Engine: knobs.Postgres, WorkloadID: "shared", Metrics: metricsOf(last), Current: configOf(last)})
	if err != nil {
		t.Fatal(err)
	}
	if rec.TrainedOn != 6 {
		t.Fatalf("trained on %d samples, want the 6 PostgreSQL ones (source %q)", rec.TrainedOn, rec.Source)
	}
	if !strings.HasPrefix(rec.Source, "gpr:mapped=shared:n=6:") {
		t.Fatalf("source %q, want mapped=shared over 6 samples", rec.Source)
	}
}

// TestReadsRaceUploads: the tuner reads the repository's store, through
// views that point at stored samples, while uploads append to it and
// deliver to the tuner. Run under -race; every upload must still reach
// the running means once, and every viewed sample must read whole.
func TestReadsRaceUploads(t *testing.T) {
	tn, repo := newBound(t, Options{Engine: knobs.Postgres, Candidates: 20, MaxSamplesPerFit: 20, UCBBeta: 0.5, Seed: 11})
	rng := rand.New(rand.NewSource(19))
	var samples []tuner.Sample
	for i := 0; i < 60; i++ {
		samples = append(samples, synthSample(tn.kcat, tn.mcat, rng, fmt.Sprintf("wl-%d", i%3), i))
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, s := range samples {
			if err := repo.Observe(s); err != nil {
				t.Error(err)
			}
		}
	}()
	var view []*tuner.Sample
	for i := 0; i < 30; i++ {
		s := samples[i]
		_, _ = tn.Recommend(tuner.Request{WorkloadID: s.WorkloadID, Metrics: metricsOf(s), Current: configOf(s)})
		tn.BgWriterBaseline(metricsOf(s))
		view = repo.Store().View(view[:0], s.WorkloadID, knobs.Postgres, 5)
		for _, v := range view {
			if v.WorkloadID != s.WorkloadID || configOf(*v)["work_mem"] <= 0 || v.Objective < 500 {
				t.Errorf("viewed sample read torn: %+v", v)
			}
		}
	}
	wg.Wait()
	repo.Flush()
	tn.mu.Lock()
	defer tn.mu.Unlock()
	for wid, n := range tn.meanCounts {
		if n != 20 {
			t.Errorf("workload %s: %d samples in its mean, want 20", wid, n)
		}
	}
	if len(tn.meanCounts) != 3 {
		t.Errorf("means for %d workloads, want 3", len(tn.meanCounts))
	}
}

// TestTrainingSamplesGaugeCountsDeliveries: the training-samples gauge
// equals the number of samples delivered, over several workloads,
// after a restore into a fresh tuner and after deliveries to it.
func TestTrainingSamplesGaugeCountsDeliveries(t *testing.T) {
	gauge := obs.Default().Gauge("autodbaas_tuner_training_samples", "", obs.L("tuner", "ottertune-bo"))
	opts := Options{Engine: knobs.Postgres, Candidates: 40, MaxSamplesPerFit: 30, UCBBeta: 0.5, TopKnobs: 6, Seed: 7}
	src, repo := newBound(t, opts)
	rng := rand.New(rand.NewSource(5))
	deliver := func(repo *repository.Repository, wid string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := repo.Observe(synthSample(src.kcat, src.mcat, rng, wid, i)); err != nil {
				t.Fatal(err)
			}
		}
		repo.Flush()
	}
	deliver(repo, "wl-a", 7)
	deliver(repo, "wl-b", 5)
	deliver(repo, "wl-a", 2)
	if got := gauge.Value(); got != 14 {
		t.Fatalf("gauge reads %v after 14 deliveries", got)
	}
	st := src.CheckpointState()
	dst, dstRepo := newBound(t, opts)
	gauge.Set(-1)
	if err := dst.RestoreCheckpointState(st); err != nil {
		t.Fatal(err)
	}
	if got := gauge.Value(); got != 14 {
		t.Fatalf("gauge reads %v after restoring 14 deliveries", got)
	}
	deliver(dstRepo, "wl-c", 3)
	if got := gauge.Value(); got != 17 {
		t.Fatalf("gauge reads %v after 3 more deliveries to the restored tuner", got)
	}
}
