package fleet

import (
	"testing"

	"autodbaas/internal/knobs"
	"autodbaas/internal/obs"
	"autodbaas/internal/tenant"
	"autodbaas/internal/tuner"
	"autodbaas/internal/tuner/bo"
)

// TestFleetStepsTemplateNothing: once its databases are provisioned, a
// fleet running one database of every built-in blueprint steps without
// a single template-cache lookup. Every statement a generator draws
// carries its template; an identifier site derives each of its own
// without the cache.
func TestFleetStepsTemplateNothing(t *testing.T) {
	var tuners []tuner.Tuner
	for _, e := range []knobs.Engine{knobs.Postgres, knobs.MySQL} {
		tn, err := bo.New(bo.Options{Engine: e, Candidates: 60, MaxSamplesPerFit: 60, UCBBeta: 0.5, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		tuners = append(tuners, tn)
	}
	tiers := map[string]tenant.Tier{"all": {Name: "all", MaxInstances: 16,
		AllowedPlans: []string{"t2.medium", "t2.large", "m4.large", "m4.xlarge"}, WarmupWindows: 2}}
	svc, err := New(Config{Seed: 42, Parallelism: 2, Tuners: tuners, Tiers: tiers})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := svc.CreateTenant(tenant.Tenant{ID: "acme", Tier: "all"}); err != nil {
		t.Fatal(err)
	}
	for _, bp := range tenant.Names(svc.Blueprints()) {
		if err := svc.CreateDatabase("acme", DatabaseSpec{ID: bp, Blueprint: bp}); err != nil {
			t.Fatal(err)
		}
	}
	mustStep(t, svc) // provisions: generator construction templates its constant sites
	cache := obs.Cache("sqlparse_template")
	lookups := func() float64 { return cache.Hits.Value() + cache.Misses.Value() }
	before := lookups()
	for i := 0; i < 12; i++ {
		mustStep(t, svc)
	}
	if n := len(localSystem(t, svc).Repository.Store().Workloads()); n != len(svc.Blueprints()) {
		t.Fatalf("%d of %d databases uploaded samples", n, len(svc.Blueprints()))
	}
	if got := lookups() - before; got != 0 {
		t.Fatalf("12 fleet steps made %.0f template-cache lookups, want 0", got)
	}
}
