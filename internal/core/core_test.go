package core

import (
	"testing"
	"time"

	"autodbaas/internal/agent"
	"autodbaas/internal/cluster"
	"autodbaas/internal/knobs"
	"autodbaas/internal/tuner/bo"
	"autodbaas/internal/workload"
)

func newSystem(t *testing.T) *System {
	t.Helper()
	tn, err := bo.New(bo.DefaultOptions(knobs.Postgres))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystem(tn)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func addTPCC(t *testing.T, s *System, id string, gate bool) *agent.Agent {
	t.Helper()
	a, err := s.AddInstance(InstanceSpec{
		Provision: cluster.ProvisionSpec{
			ID: id, Plan: "m4.large", Engine: knobs.Postgres,
			DBSizeBytes: 21 * cluster.GiB, Seed: 21,
		},
		Workload: workload.NewAdulteratedTPCC(21*cluster.GiB, 3000, 0.8),
		Agent:    agent.Options{TickEvery: 5 * time.Minute, GateSamples: gate},
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewSystemRequiresTuner(t *testing.T) {
	if _, err := NewSystem(); err == nil {
		t.Fatal("no tuners accepted")
	}
}

func TestAddInstanceWiring(t *testing.T) {
	s := newSystem(t)
	a := addTPCC(t, s, "db-1", true)
	if got, ok := s.Agent("db-1"); !ok || got != a {
		t.Fatal("agent lookup failed")
	}
	if _, ok := s.Monitor("db-1"); !ok {
		t.Fatal("monitor missing")
	}
	if err := s.Orchestrator.Known("db-1"); err != nil {
		t.Fatal("orchestrator does not know the instance")
	}
	if len(s.Agents()) != 1 {
		t.Fatal("agents list wrong")
	}
	// Duplicate ID is rejected at the provisioner.
	if _, err := s.AddInstance(InstanceSpec{
		Provision: cluster.ProvisionSpec{ID: "db-1", Plan: "m4.large", Engine: knobs.Postgres, DBSizeBytes: cluster.GiB},
		Workload:  workload.NewYCSB(cluster.GiB, 10),
	}); err == nil {
		t.Fatal("duplicate instance accepted")
	}
	if _, err := s.AddInstance(InstanceSpec{
		Provision: cluster.ProvisionSpec{ID: "db-x", Plan: "m4.large", Engine: knobs.Postgres, DBSizeBytes: cluster.GiB},
	}); err == nil {
		t.Fatal("nil workload accepted")
	}
}

func TestStepDrivesThrottlesSamplesAndMonitoring(t *testing.T) {
	s := newSystem(t)
	addTPCC(t, s, "db-1", true)
	var throttles int
	for i := 0; i < 8; i++ {
		res := s.Step(5 * time.Minute)
		throttles += res.Throttles
		if _, ok := res.Windows["db-1"]; !ok {
			t.Fatal("window stats missing")
		}
	}
	if throttles == 0 {
		t.Fatal("no throttles across 40 minutes of adulterated TPCC")
	}
	if s.Repository.Len() == 0 {
		t.Fatal("no samples reached the repository")
	}
	m, _ := s.Monitor("db-1")
	if m.Series("disk_latency_ms").Len() != 8 {
		t.Fatalf("monitoring series has %d points", m.Series("disk_latency_ms").Len())
	}
	if requests, _, _, _ := s.Director.Counters(); requests == 0 {
		t.Fatal("throttles did not become tuning requests")
	}
}

func TestRecommendationsEventuallyApplied(t *testing.T) {
	s := newSystem(t)
	a := addTPCC(t, s, "db-1", true)
	before := a.Instance().Replica.Master().Config()
	// Enough steps for the tuner to accumulate ≥4 samples and recommend.
	stepN(s, 36)
	if s.DFA.Applied() == 0 {
		t.Fatal("no recommendation was ever applied")
	}
	after := a.Instance().Replica.Master().Config()
	if after.Equal(before) {
		t.Fatal("config unchanged after applied recommendations")
	}
}

func TestMaintenanceWindowViaSystem(t *testing.T) {
	s := newSystem(t)
	s.Step(5 * time.Minute) // no instances yet: no-op
	addTPCC(t, s, "db-1", true)
	stepN(s, 12)
	if err := s.MaintenanceWindow("db-1"); err != nil {
		t.Fatal(err)
	}
	if err := s.MaintenanceWindow("ghost"); err == nil {
		t.Fatal("unknown instance accepted")
	}
}
