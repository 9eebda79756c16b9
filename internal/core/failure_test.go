package core

import (
	"errors"
	"testing"
	"time"

	"autodbaas/internal/agent"
	"autodbaas/internal/cluster"
	"autodbaas/internal/knobs"
	"autodbaas/internal/simdb"
	"autodbaas/internal/tuner"
	"autodbaas/internal/tuner/bo"
	"autodbaas/internal/workload"
)

// evilTuner always recommends an OOM-bound configuration.
type evilTuner struct{ calls int }

func (e *evilTuner) Name() string               { return "evil" }
func (e *evilTuner) Observe(tuner.Sample) error { return nil }
func (e *evilTuner) Recommend(tuner.Request) (tuner.Recommendation, error) {
	e.calls++
	return tuner.Recommendation{Config: knobs.Config{
		"work_mem":             2 * cluster.GiB,
		"maintenance_work_mem": 8 * cluster.GiB,
		"temp_buffers":         4 * cluster.GiB,
	}}, nil
}

// A tuner that only emits destructive recommendations must never take
// the fleet down: the DFA rejects every apply and the databases keep
// serving on their previous configuration.
func TestEvilTunerCannotKillTheFleet(t *testing.T) {
	et := &evilTuner{}
	sys, err := NewSystem(et)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewAdulteratedTPCC(21*cluster.GiB, 3000, 0.8)
	a, err := sys.AddInstance(InstanceSpec{
		Provision: cluster.ProvisionSpec{
			ID: "victim", Plan: "m4.large", Engine: knobs.Postgres,
			DBSizeBytes: gen.DBSizeBytes(), Slaves: 1, Seed: 13,
		},
		Workload: gen,
		Agent:    agent.Options{TickEvery: 5 * time.Minute, GateSamples: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	before := a.Instance().Replica.Master().Config()
	for i := 0; i < 12; i++ {
		sys.Step(5 * time.Minute)
	}
	if et.calls == 0 {
		t.Fatal("evil tuner never consulted — no throttles?")
	}
	if sys.DFA.Rejected() == 0 {
		t.Fatal("destructive recommendations were not rejected")
	}
	if sys.DFA.Applied() != 0 {
		t.Fatal("a destructive recommendation was applied")
	}
	master := a.Instance().Replica.Master()
	if master.Down() {
		t.Fatal("master is down")
	}
	if !master.Config().Equal(before) {
		t.Fatal("config changed despite rejections")
	}
}

// A crashed master must not wedge the agent loop: time keeps advancing,
// the error is surfaced, and a restart through the orchestrator's
// redeploy path brings the persisted config back.
func TestCrashedMasterRecoversViaRedeploy(t *testing.T) {
	tn, err := bo.New(bo.DefaultOptions(knobs.Postgres))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(tn)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewYCSB(10*cluster.GiB, 2000)
	a, err := sys.AddInstance(InstanceSpec{
		Provision: cluster.ProvisionSpec{
			ID: "flaky", Plan: "m4.large", Engine: knobs.Postgres,
			DBSizeBytes: gen.DBSizeBytes(), Seed: 4,
		},
		Workload: gen,
		Agent:    agent.Options{TickEvery: 5 * time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Step(5 * time.Minute)
	crashed := false
	a.Instance().Replica.Master().SetFaultHooks(&simdb.FaultHooks{WindowStart: func() simdb.WindowFault {
		crash := !crashed
		crashed = true
		return simdb.WindowFault{Crash: crash}
	}})
	res := sys.Step(5 * time.Minute)
	if !errors.Is(res.Errors["flaky"], simdb.ErrDown) {
		t.Fatalf("crash not surfaced: %v", res.Errors["flaky"])
	}
	if err := sys.Orchestrator.Redeploy("flaky"); err != nil {
		t.Fatal(err)
	}
	res = sys.Step(5 * time.Minute)
	if res.Errors["flaky"] != nil {
		t.Fatalf("still erroring after redeploy: %v", res.Errors["flaky"])
	}
	if res.Windows["flaky"].Achieved <= 0 {
		t.Fatal("no throughput after redeploy")
	}
}

// Redeploy (e.g. a security patch) must preserve the tuned config —
// §4's "a database reset or re-deployment doesn't overwrite the
// settings".
func TestRedeployKeepsTunedConfig(t *testing.T) {
	tn, err := bo.New(bo.Options{Engine: knobs.Postgres, Candidates: 100, UCBBeta: 0.3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(tn)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewAdulteratedTPCC(21*cluster.GiB, 3000, 0.5)
	a, err := sys.AddInstance(InstanceSpec{
		Provision: cluster.ProvisionSpec{
			ID: "patched", Plan: "m4.xlarge", Engine: knobs.Postgres,
			DBSizeBytes: gen.DBSizeBytes(), Seed: 6,
		},
		Workload: gen,
		Agent:    agent.Options{TickEvery: 5 * time.Minute, GateSamples: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	stepN(sys, 24)
	if sys.DFA.Applied() == 0 {
		t.Skip("no recommendation landed in 2h — nothing to verify")
	}
	tuned := a.Instance().Replica.Master().Config()
	if err := sys.Orchestrator.Redeploy("patched"); err != nil {
		t.Fatal(err)
	}
	after := a.Instance().Replica.Master().Config()
	for _, n := range a.Instance().Replica.Master().KnobCatalog().TunableNames() {
		if after[n] != tuned[n] {
			t.Fatalf("redeploy lost tuned knob %s: %g → %g", n, tuned[n], after[n])
		}
	}
}
