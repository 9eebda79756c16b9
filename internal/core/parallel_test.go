package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"autodbaas/internal/agent"
	"autodbaas/internal/cluster"
	"autodbaas/internal/faults"
	"autodbaas/internal/knobs"
	"autodbaas/internal/tuner/bo"
	"autodbaas/internal/workload"
)

// fleetFingerprint captures everything the determinism guarantee
// covers: throttle counts, repository contents, director counters, the
// monitoring series lengths and every instance's final configuration.
type fleetFingerprint struct {
	Throttles       int
	Samples         int
	TuningRequests  int
	Recommendations int
	ApplyFailures   int
	PlanUpgrades    int
	MonitorPoints   map[string]int
	Configs         map[string]knobs.Config
}

// runFleet builds the same mixed fleet at the given parallelism, steps
// it for two simulated hours and fingerprints the result.
func runFleet(t *testing.T, parallelism int) fleetFingerprint {
	return runFleetWith(t, parallelism, nil)
}

// runFleetWith is runFleet with an optional fault injector.
func runFleetWith(t *testing.T, parallelism int, in *faults.Injector) fleetFingerprint {
	t.Helper()
	tn, err := bo.New(bo.Options{Engine: knobs.Postgres, Candidates: 60, MaxSamplesPerFit: 60, UCBBeta: 0.5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystemWithOptions(Options{Parallelism: parallelism, Faults: in}, tn)
	if err != nil {
		t.Fatal(err)
	}
	gens := []func() workload.Generator{
		func() workload.Generator { return workload.NewAdulteratedTPCC(21*cluster.GiB, 3000, 0.8) },
		func() workload.Generator { return workload.NewProduction() },
		func() workload.Generator { return workload.NewYCSB(10*cluster.GiB, 2000) },
	}
	plans := []string{"m4.large", "t2.large", "m4.xlarge"}
	const fleet = 6
	for i := 0; i < fleet; i++ {
		gen := gens[i%len(gens)]()
		if _, err := s.AddInstance(InstanceSpec{
			Provision: cluster.ProvisionSpec{
				ID: fmt.Sprintf("db-%02d", i), Plan: plans[i%len(plans)],
				Engine: knobs.Postgres, DBSizeBytes: gen.DBSizeBytes(), Seed: 100 + int64(i),
			},
			Workload: gen,
			Agent:    agent.Options{TickEvery: 5 * time.Minute, GateSamples: true},
		}); err != nil {
			t.Fatal(err)
		}
	}
	fp := fleetFingerprint{
		Throttles:     stepN(s, 24),
		Samples:       s.Repository.Len(),
		MonitorPoints: make(map[string]int),
		Configs:       make(map[string]knobs.Config),
	}
	fp.TuningRequests, fp.Recommendations, fp.ApplyFailures, fp.PlanUpgrades = s.Director.Counters()
	for _, a := range s.Agents() {
		id := a.Instance().ID
		fp.Configs[id] = a.Instance().Replica.Master().Config()
		if m, ok := s.Monitor(id); ok {
			fp.MonitorPoints[id] = m.Series("disk_latency_ms").Len()
		}
	}
	return fp
}

// TestStepDeterminismAcrossParallelism is the fleet scheduler's core
// guarantee: identical seeds produce bit-for-bit identical results at
// every worker count, because the window phase is instance-local and
// the control-plane merge runs in onboarding order.
func TestStepDeterminismAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet determinism sweep")
	}
	base := runFleet(t, 1)
	if base.Throttles == 0 || base.Samples == 0 || base.TuningRequests == 0 {
		t.Fatalf("degenerate baseline: %+v", base)
	}
	for _, par := range []int{4, 16} {
		got := runFleet(t, par)
		if !reflect.DeepEqual(base, got) {
			t.Errorf("parallelism=%d diverged from sequential run:\n  seq: %+v\n  par: %+v", par, base, got)
		}
	}
}

// TestStepDeterminismAcrossParallelismUnderFaults extends the
// determinism guarantee to chaos runs: the injector draws from per-site
// PRNG streams, so a fixed (fault seed, profile) yields identical fleet
// fingerprints AND identical per-kind injected-fault counts at every
// parallelism level.
func TestStepDeterminismAcrossParallelismUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet determinism sweep")
	}
	run := func(par int) (fleetFingerprint, map[string]int64) {
		in := faults.New(99, faults.Medium())
		fp := runFleetWith(t, par, in)
		return fp, in.Counts()
	}
	base, baseCounts := run(1)
	if len(baseCounts) == 0 {
		t.Fatal("medium profile injected nothing over two fleet hours")
	}
	for _, par := range []int{4, 16} {
		got, counts := run(par)
		if !reflect.DeepEqual(base, got) {
			t.Errorf("parallelism=%d chaos run diverged:\n  seq: %+v\n  par: %+v", par, base, got)
		}
		if !reflect.DeepEqual(baseCounts, counts) {
			t.Errorf("parallelism=%d injected different faults:\n  seq: %v\n  par: %v", par, baseCounts, counts)
		}
	}
}

// TestZeroProfileInjectorIsTransparent pins the acceptance criterion
// that wiring an injector with the zero profile changes nothing: the
// fingerprint matches a run with no injector at all.
func TestZeroProfileInjectorIsTransparent(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet sweep")
	}
	clean := runFleet(t, 4)
	in := faults.New(12345, faults.Zero())
	zero := runFleetWith(t, 4, in)
	if !reflect.DeepEqual(clean, zero) {
		t.Errorf("zero-profile injector perturbed the run:\n  clean: %+v\n  zero:  %+v", clean, zero)
	}
	if in.InjectedTotal() != 0 {
		t.Errorf("zero profile injected %d faults", in.InjectedTotal())
	}
}

// TestParallelismAccessorAndDefault pins the Options plumbing.
func TestParallelismAccessorAndDefault(t *testing.T) {
	tn, err := bo.New(bo.DefaultOptions(knobs.Postgres))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystemWithOptions(Options{Parallelism: 3}, tn)
	if err != nil {
		t.Fatal(err)
	}
	if s.parallelism != 3 {
		t.Fatalf("parallelism = %d, want 3", s.parallelism)
	}
	tn2, err := bo.New(bo.DefaultOptions(knobs.Postgres))
	if err != nil {
		t.Fatal(err)
	}
	def, err := NewSystem(tn2)
	if err != nil {
		t.Fatal(err)
	}
	if def.parallelism < 1 {
		t.Fatalf("default parallelism = %d, want >= 1", def.parallelism)
	}
}
