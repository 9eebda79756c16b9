package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"autodbaas/internal/agent"
	"autodbaas/internal/checkpoint"
	"autodbaas/internal/cluster"
	"autodbaas/internal/dfa"
	"autodbaas/internal/faults"
	"autodbaas/internal/knobs"
	"autodbaas/internal/safety"
	"autodbaas/internal/simdb"
	"autodbaas/internal/tuner/bo"
	"autodbaas/internal/workload"
)

// buildSafetyFleet is buildCkptFleet's gated sibling: same 6-instance
// mixed cohort, safe-tuning gate armed with default options.
func buildSafetyFleet(t *testing.T, parallelism int, in *faults.Injector) *System {
	t.Helper()
	opts := safety.DefaultOptions()
	return buildGateFleet(t, parallelism, in, &opts)
}

// buildGateFleet builds the cohort with an optional gate, so gated and
// ungated systems share every other construction parameter.
func buildGateFleet(t *testing.T, parallelism int, in *faults.Injector, gate *safety.Options) *System {
	t.Helper()
	tb, err := bo.New(bo.Options{Engine: knobs.Postgres, Candidates: 60, MaxSamplesPerFit: 60, UCBBeta: 0.5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystemWithOptions(Options{Parallelism: parallelism, Faults: in, Safety: gate}, tb)
	if err != nil {
		t.Fatal(err)
	}
	gens := []func() workload.Generator{
		func() workload.Generator { return workload.NewAdulteratedTPCC(21*cluster.GiB, 3000, 0.8) },
		func() workload.Generator { return workload.NewProduction() },
		func() workload.Generator { return workload.NewYCSB(10*cluster.GiB, 2000) },
	}
	plans := []string{"m4.large", "t2.large", "m4.xlarge"}
	for i := 0; i < 6; i++ {
		gen := gens[i%len(gens)]()
		if _, err := s.AddInstance(InstanceSpec{
			Provision: cluster.ProvisionSpec{
				ID: fmt.Sprintf("db-%02d", i), Plan: plans[i%len(plans)],
				Engine: knobs.Postgres, DBSizeBytes: gen.DBSizeBytes(),
				Slaves: i % 2, Seed: 100 + int64(i),
			},
			Workload: gen,
			Agent:    agent.Options{TickEvery: 5 * time.Minute, GateSamples: true},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// safetyTotals reads the gate's fleet-wide counters for comparison.
func safetyTotals(s *System) [4]int64 {
	v, c, r, x := s.Director.SafetyTotals()
	return [4]int64{v, c, r, x}
}

// TestSafetyGateParallelismInvariance: gate decisions are made in the
// ordered merge phase, so a gated fleet must fingerprint identically at
// every parallelism level — including the gate's own counters and
// serialized state — clean and under the medium fault profile.
func TestSafetyGateParallelismInvariance(t *testing.T) {
	for _, chaos := range []bool{false, true} {
		t.Run(fmt.Sprintf("chaos=%v", chaos), func(t *testing.T) {
			inject := func() *faults.Injector {
				if !chaos {
					return nil
				}
				return faults.New(99, faults.Medium())
			}
			ref := buildSafetyFleet(t, 1, inject())
			stepN(ref, 16)
			want := fingerprintSystem(ref)
			wantTotals := safetyTotals(ref)
			wantState, err := ref.SafetyGate().MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			if wantTotals[1] == 0 {
				t.Fatal("degenerate run: the gate never ran a canary")
			}

			pars := []int{4}
			if !testing.Short() {
				pars = append(pars, 16)
			}
			for _, par := range pars {
				got := buildSafetyFleet(t, par, inject())
				stepN(got, 16)
				if fp := fingerprintSystem(got); !reflect.DeepEqual(want, fp) {
					t.Errorf("P=%d fingerprint diverged from P=1", par)
				}
				if totals := safetyTotals(got); totals != wantTotals {
					t.Errorf("P=%d safety totals = %v, want %v", par, totals, wantTotals)
				}
				gotState, err := got.SafetyGate().MarshalState()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(wantState, gotState) {
					t.Errorf("P=%d gate state diverged from P=1", par)
				}
			}
		})
	}
}

// TestSafetyGateKillRestoreEquivalence: the gate's baselines, trust
// radii and watch state ride the extra/safety checkpoint section, so an
// interrupted gated run resumed in a fresh process must land bit-for-bit
// on the uninterrupted run — counters and serialized gate state included.
func TestSafetyGateKillRestoreEquivalence(t *testing.T) {
	const total, cut = 20, 9
	for _, chaos := range []bool{false, true} {
		t.Run(fmt.Sprintf("chaos=%v", chaos), func(t *testing.T) {
			inject := func() *faults.Injector {
				if !chaos {
					return nil
				}
				return faults.New(99, faults.Medium())
			}

			ref := buildSafetyFleet(t, 4, inject())
			stepN(ref, total)
			want := fingerprintSystem(ref)
			wantTotals := safetyTotals(ref)
			wantState, err := ref.SafetyGate().MarshalState()
			if err != nil {
				t.Fatal(err)
			}

			first := buildSafetyFleet(t, 4, inject())
			stepN(first, cut)
			var snap bytes.Buffer
			if err := first.Checkpoint(&snap); err != nil {
				t.Fatal(err)
			}
			// The snapshot must carry the gate's section.
			_, sections, err := checkpoint.Inspect(bytes.NewReader(snap.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := sections["extra/"+safety.SectionName]; !ok {
				names := make([]string, 0, len(sections))
				for n := range sections {
					names = append(names, n)
				}
				t.Fatalf("snapshot lacks extra/%s (has: %s)", safety.SectionName, strings.Join(names, ", "))
			}

			resumed := buildSafetyFleet(t, 4, inject())
			if err := resumed.Restore(bytes.NewReader(snap.Bytes())); err != nil {
				t.Fatal(err)
			}
			stepN(resumed, total-cut)
			if got := fingerprintSystem(resumed); !reflect.DeepEqual(want, got) {
				t.Errorf("resumed gated run diverged from uninterrupted run")
			}
			if totals := safetyTotals(resumed); totals != wantTotals {
				t.Errorf("resumed safety totals = %v, want %v", totals, wantTotals)
			}
			gotState, err := resumed.SafetyGate().MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wantState, gotState) {
				t.Errorf("resumed gate state diverged from uninterrupted run")
			}
		})
	}
}

// TestRestoreRejectsMissingSafetySection: a gated system restoring a
// snapshot written by an ungated system must fail the manifest check —
// silently resetting the gate would un-learn every baseline.
func TestRestoreRejectsMissingSafetySection(t *testing.T) {
	plain := buildGateFleet(t, 1, nil, nil)
	stepN(plain, 2)
	var snap bytes.Buffer
	if err := plain.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}

	gated := buildSafetyFleet(t, 1, nil)
	err := gated.Restore(bytes.NewReader(snap.Bytes()))
	if err == nil {
		t.Fatal("gated system restored an ungated snapshot")
	}
	if !strings.Contains(err.Error(), safety.SectionName) {
		t.Fatalf("error does not name the missing section: %v", err)
	}
}

// TestSystemRejectsInvalidSafetyOptions: gate options the engine's
// query log cannot serve refuse to build a system.
func TestSystemRejectsInvalidSafetyOptions(t *testing.T) {
	tb, err := bo.New(bo.Options{Engine: knobs.Postgres, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	gate := safety.DefaultOptions()
	gate.ExplainStatements = simdb.DefaultQueryLogSize + 1
	if _, err := NewSystemWithOptions(Options{Safety: &gate}, tb); err == nil || !strings.Contains(err.Error(), "explain_statements") {
		t.Fatalf("want an explain_statements error, got %v", err)
	}
}

// TestSeedConfigErrorPaths pins SeedConfig's failure modes: unknown
// instance, a DFA apply rejected by an injected fault, and a restart
// fault striking mid-seed — plus the success path's clamp-and-fit
// behaviour for out-of-range donor configs.
func TestSeedConfigErrorPaths(t *testing.T) {
	addOne := func(t *testing.T, s *System) string {
		t.Helper()
		gen := workload.NewYCSB(10*cluster.GiB, 2000)
		if _, err := s.AddInstance(InstanceSpec{
			Provision: cluster.ProvisionSpec{
				ID: "db-00", Plan: "m4.large", Engine: knobs.Postgres,
				DBSizeBytes: gen.DBSizeBytes(), Seed: 100,
			},
			Workload: gen,
			Agent:    agent.Options{TickEvery: 5 * time.Minute},
		}); err != nil {
			t.Fatal(err)
		}
		return "db-00"
	}
	newSys := func(t *testing.T, in *faults.Injector) *System {
		t.Helper()
		tb, err := bo.New(bo.Options{Engine: knobs.Postgres, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSystemWithOptions(Options{Faults: in}, tb)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	t.Run("unknown-instance", func(t *testing.T) {
		s := newSys(t, nil)
		if err := s.SeedConfig("nope", knobs.Config{"work_mem": 8}); err == nil {
			t.Fatal("seeding an unknown instance succeeded")
		}
	})

	t.Run("apply-fault", func(t *testing.T) {
		s := newSys(t, faults.New(1, faults.Profile{ApplyError: 1}))
		id := addOne(t, s)
		before := configOf(t, s, id)
		err := s.SeedConfig(id, knobs.Config{"work_mem": 8})
		if err == nil {
			t.Fatal("seed survived a 100% apply-fault profile")
		}
		if !errors.Is(err, dfa.ErrRejected) {
			t.Fatalf("error is not a DFA rejection: %v", err)
		}
		if !strings.Contains(err.Error(), "injected failure") {
			t.Fatalf("rejection does not surface the injected fault: %v", err)
		}
		if got := configOf(t, s, id); !got.Equal(before) {
			t.Fatalf("failed seed mutated the config: %v -> %v", before, got)
		}
	})

	t.Run("restart-fault", func(t *testing.T) {
		s := newSys(t, faults.New(1, faults.Profile{StuckRestart: 1}))
		id := addOne(t, s)
		err := s.SeedConfig(id, knobs.Config{"work_mem": 8})
		if err == nil {
			t.Fatal("seed survived a 100% stuck-restart profile")
		}
		if !strings.Contains(err.Error(), "seed-config restart") {
			t.Fatalf("error does not name the restart phase: %v", err)
		}
	})

	t.Run("clamp-and-fit", func(t *testing.T) {
		s := newSys(t, nil)
		id := addOne(t, s)
		// An out-of-range working-memory knob must clamp into the
		// catalogue bounds and shrink to the memory budget, not error.
		if err := s.SeedConfig(id, knobs.Config{"work_mem": 1e12}); err != nil {
			t.Fatalf("out-of-range seed config: %v", err)
		}
		cfg := configOf(t, s, id)
		kcat := knobs.PostgresCatalog()
		if err := kcat.Validate(cfg); err != nil {
			t.Fatalf("seeded config is out of catalogue range: %v", err)
		}
	})

	t.Run("budget-rejection", func(t *testing.T) {
		s := newSys(t, nil)
		id := addOne(t, s)
		before := configOf(t, s, id)
		// The buffer-pool knob is deliberately not shrunk by the
		// budget fit (it only changes in maintenance windows), so a
		// donor pool bigger than the instance dies at the DFA dry-run.
		err := s.SeedConfig(id, knobs.Config{"shared_buffers": 1e12})
		if err == nil {
			t.Fatal("oversized buffer pool accepted")
		}
		if !errors.Is(err, dfa.ErrRejected) || !strings.Contains(err.Error(), "exceed instance budget") {
			t.Fatalf("error is not the dry-run budget rejection: %v", err)
		}
		if got := configOf(t, s, id); !got.Equal(before) {
			t.Fatalf("failed seed mutated the config: %v -> %v", before, got)
		}
	})
}

// configOf reads one instance's live master config.
func configOf(t *testing.T, s *System, id string) knobs.Config {
	t.Helper()
	for _, a := range s.Agents() {
		if a.Instance().ID == id {
			return a.Instance().Replica.Master().Config()
		}
	}
	t.Fatalf("no agent %s", id)
	return nil
}
