package fleet

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"autodbaas/internal/core"
	"autodbaas/internal/knobs"
	"autodbaas/internal/metrics"
	"autodbaas/internal/shard"
	"autodbaas/internal/tenant"
	"autodbaas/internal/tuner"
	"autodbaas/internal/tuner/bo"
)

// newWarmStartService builds a flat service with warm starts on.
func newWarmStartService(t *testing.T, parallelism int) *Service {
	t.Helper()
	tn, err := bo.New(bo.Options{Engine: knobs.Postgres, Candidates: 60, MaxSamplesPerFit: 60, UCBBeta: 0.5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	tiers, bps := testCatalogue()
	svc, err := New(Config{
		Seed:        42,
		Parallelism: parallelism,
		Tuners:      []tuner.Tuner{tn},
		Tiers:       tiers,
		Blueprints:  bps,
		WarmStart:   &WarmStartConfig{MinDonorSamples: 3, MaxSeedSamples: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestWarmStartSeedsFromDonor drives one instance long enough to build
// donor history, then provisions a second instance of the same
// blueprint and checks it is seeded: hit/miss counters advance, the new
// workload has repository history before its own first upload would
// explain it, and the seeded samples carry the new workload ID.
func TestWarmStartSeedsFromDonor(t *testing.T) {
	svc := newWarmStartService(t, 2)
	defer svc.Close()
	if err := svc.CreateTenant(tenant.Tenant{ID: "acme", Tier: "std"}); err != nil {
		t.Fatal(err)
	}
	if err := svc.CreateDatabase("acme", DatabaseSpec{ID: "donor", Blueprint: "oltp"}); err != nil {
		t.Fatal(err)
	}
	// The donor itself must start cold: that is the miss.
	mustStep(t, svc)
	if hits, misses, seeded := svc.WarmStartCounts(); hits != 0 || misses != 1 || seeded != 0 {
		t.Fatalf("after donor provision: hits=%d misses=%d seeded=%d", hits, misses, seeded)
	}
	// Build donor history past MinDonorSamples.
	for i := 0; i < 6; i++ {
		mustStep(t, svc)
	}
	localSystem(t, svc).Repository.Flush()
	donorHist := len(localSystem(t, svc).Repository.Store().Samples("acme/donor/tpcc"))
	if donorHist < 3 {
		t.Fatalf("donor accumulated only %d samples", donorHist)
	}

	if err := svc.CreateDatabase("acme", DatabaseSpec{ID: "fresh", Blueprint: "oltp"}); err != nil {
		t.Fatal(err)
	}
	mustStep(t, svc)
	hits, misses, seeded := svc.WarmStartCounts()
	if hits != 1 || misses != 1 {
		t.Fatalf("after fresh provision: hits=%d misses=%d", hits, misses)
	}
	if seeded <= 0 || seeded > 8 {
		t.Fatalf("seeded %d samples, want 1..8", seeded)
	}
	localSystem(t, svc).Repository.Flush()
	fresh := localSystem(t, svc).Repository.Store().Samples("acme/fresh/tpcc")
	if int64(len(fresh)) < seeded {
		t.Fatalf("fresh workload has %d samples, seeded %d", len(fresh), seeded)
	}
	for _, s := range fresh {
		if s.WorkloadID != "acme/fresh/tpcc" {
			t.Fatalf("seeded sample kept donor workload ID %q", s.WorkloadID)
		}
	}
	// A different blueprint has no donors: miss.
	if err := svc.CreateDatabase("acme", DatabaseSpec{ID: "kv1", Blueprint: "kv"}); err != nil {
		t.Fatal(err)
	}
	mustStep(t, svc)
	if hits, misses, _ := svc.WarmStartCounts(); hits != 1 || misses != 2 {
		t.Fatalf("after kv provision: hits=%d misses=%d", hits, misses)
	}
}

// TestWarmStartAppliesDonorConfig checks step 2 of the policy: the
// freshly provisioned instance starts on the donor's best-objective
// configuration (budget-fitted), not on engine defaults. Donor history
// is injected directly so the tuned-away-from-default knobs are known.
func TestWarmStartAppliesDonorConfig(t *testing.T) {
	svc := newWarmStartService(t, 1)
	defer svc.Close()
	repo := localSystem(t, svc).Repository
	kcat, err := knobs.CatalogFor(knobs.Postgres)
	if err != nil {
		t.Fatal(err)
	}
	mcat, err := metrics.CatalogFor("postgres")
	if err != nil {
		t.Fatal(err)
	}
	snap := make(metrics.Snapshot, mcat.Len())
	for i, name := range mcat.Names() {
		snap[name] = float64(100 + i)
	}
	tuned := kcat.DefaultConfig()
	tuned["work_mem"] = 16 << 20
	tuned["random_page_cost"] = 2.0
	for i := 0; i < 4; i++ {
		s := tuner.Sample{WorkloadID: "ghost/donor/tpcc", Engine: knobs.Postgres, Objective: 1000 + float64(i), Quality: true}
		if err := s.SetMaps(tuned, snap); err != nil {
			t.Fatal(err)
		}
		if err := repo.Observe(s); err != nil {
			t.Fatal(err)
		}
	}
	repo.Flush()

	if err := svc.CreateTenant(tenant.Tenant{ID: "acme", Tier: "std"}); err != nil {
		t.Fatal(err)
	}
	if err := svc.CreateDatabase("acme", DatabaseSpec{ID: "fresh", Blueprint: "oltp"}); err != nil {
		t.Fatal(err)
	}
	mustStep(t, svc)
	if hits, misses, _ := svc.WarmStartCounts(); hits != 1 || misses != 0 {
		t.Fatalf("hits=%d misses=%d, want 1/0", hits, misses)
	}
	persisted, err := localSystem(t, svc).Orchestrator.PersistedConfig("acme/fresh")
	if err != nil {
		t.Fatal(err)
	}
	if got := persisted["work_mem"]; got != float64(16<<20) {
		t.Fatalf("work_mem = %v, want %v (donor best)", got, float64(16<<20))
	}
	if got := persisted["random_page_cost"]; got != 2.0 {
		t.Fatalf("random_page_cost = %v, want 2.0 (donor best)", got)
	}
}

// TestWarmStartDeterministicAcrossParallelism: warm starts run inside
// the reconcile pass, so the full timeline must stay bit-identical at
// every flat parallelism level.
func TestWarmStartDeterministicAcrossParallelism(t *testing.T) {
	run := func(par int) Fingerprint {
		svc := newWarmStartService(t, par)
		defer svc.Close()
		if err := svc.CreateTenant(tenant.Tenant{ID: "acme", Tier: "std"}); err != nil {
			t.Fatal(err)
		}
		if err := svc.CreateDatabase("acme", DatabaseSpec{ID: "d0", Blueprint: "oltp"}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			mustStep(t, svc)
		}
		if err := svc.CreateDatabase("acme", DatabaseSpec{ID: "d1", Blueprint: "oltp"}); err != nil {
			t.Fatal(err)
		}
		if err := svc.CreateDatabase("acme", DatabaseSpec{ID: "d2", Blueprint: "oltp"}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			mustStep(t, svc)
		}
		fp, err := svc.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return fp
	}
	fp1 := run(1)
	for _, par := range []int{4, 16} {
		if fp := run(par); !reflect.DeepEqual(fp, fp1) {
			t.Fatalf("fingerprint diverged at parallelism %d", par)
		}
	}
}

// TestWarmStartCountersSurviveRestore pins the counters to the
// control-plane checkpoint section.
func TestWarmStartCountersSurviveRestore(t *testing.T) {
	svc := newWarmStartService(t, 1)
	defer svc.Close()
	if err := svc.CreateTenant(tenant.Tenant{ID: "acme", Tier: "std"}); err != nil {
		t.Fatal(err)
	}
	if err := svc.CreateDatabase("acme", DatabaseSpec{ID: "donor", Blueprint: "oltp"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		mustStep(t, svc)
	}
	if err := svc.CreateDatabase("acme", DatabaseSpec{ID: "fresh", Blueprint: "oltp"}); err != nil {
		t.Fatal(err)
	}
	mustStep(t, svc)
	h1, m1, s1 := svc.WarmStartCounts()
	dir := t.TempDir()
	if _, err := svc.CheckpointNow(dir); err != nil {
		t.Fatal(err)
	}
	restored := newWarmStartService(t, 1)
	defer restored.Close()
	if err := restored.RestoreLatest(dir); err != nil {
		t.Fatal(err)
	}
	h2, m2, s2 := restored.WarmStartCounts()
	if h1 != h2 || m1 != m2 || s1 != s2 {
		t.Fatalf("counters diverged across restore: (%d,%d,%d) vs (%d,%d,%d)", h1, m1, s1, h2, m2, s2)
	}
}

// TestWarmStartShardedRejected: the donor query needs the flat engine's
// fleet-scope repository.
func TestWarmStartShardedRejected(t *testing.T) {
	tiers, bps := testCatalogue()
	svc, err := New(Config{
		Seed:       42,
		Tiers:      tiers,
		Blueprints: bps,
		Shards: []shard.Config{
			{Name: "s0", Seed: 1},
			{Name: "s1", Seed: 2},
		},
		WarmStart: &WarmStartConfig{},
	})
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("sharded warm start accepted: %v", err)
	}
	if svc != nil {
		t.Fatal("rejection returned a live service alongside the error")
	}
}

// recordingShard counts every Shard method invocation; the zero value
// is a valid, never-touched host.
type recordingShard struct {
	name  string
	calls int
}

func (r *recordingShard) Name() string                              { r.calls++; return r.name }
func (r *recordingShard) AddInstance(shard.InstanceSpec) error      { r.calls++; return nil }
func (r *recordingShard) RemoveInstance(string) error               { r.calls++; return nil }
func (r *recordingShard) Members() ([]core.Member, error)           { r.calls++; return nil, nil }
func (r *recordingShard) Counters() (shard.Counters, error)         { r.calls++; return shard.Counters{}, nil }
func (r *recordingShard) Checkpoint() ([]byte, error)               { r.calls++; return nil, nil }
func (r *recordingShard) Restore([]byte) error                      { r.calls++; return nil }
func (r *recordingShard) Close() error                              { r.calls++; return nil }
func (r *recordingShard) ImportInstance(shard.InstanceExport) error { r.calls++; return nil }
func (r *recordingShard) Step(time.Duration) (shard.StepResult, error) {
	r.calls++
	return shard.StepResult{}, nil
}
func (r *recordingShard) Fingerprint() (shard.Fingerprint, error) {
	r.calls++
	return shard.Fingerprint{}, nil
}
func (r *recordingShard) ExportInstance(string) (shard.InstanceExport, error) {
	r.calls++
	return shard.InstanceExport{}, nil
}
func (r *recordingShard) ResizeInstance(string, string, int64, shard.AgentConfig) error {
	r.calls++
	return nil
}

// TestWarmStartShardedRejectionMutatesNothing: the invalid-config error
// must fire before the service touches its shard hosts — the caller
// keeps fully usable hosts (not even Close is called) and no fleet
// state exists to leak.
func TestWarmStartShardedRejectionMutatesNothing(t *testing.T) {
	tiers, bps := testCatalogue()
	hosts := []*recordingShard{{name: "s0"}, {name: "s1"}}
	svc, err := New(Config{
		Seed:       42,
		Tiers:      tiers,
		Blueprints: bps,
		ShardHosts: []shard.Shard{hosts[0], hosts[1]},
		WarmStart:  &WarmStartConfig{},
	})
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("sharded warm start accepted: %v", err)
	}
	if svc != nil {
		t.Fatal("rejection returned a live service alongside the error")
	}
	for _, h := range hosts {
		if h.calls != 0 {
			t.Errorf("shard %s saw %d calls during a rejected New", h.name, h.calls)
		}
	}
}
