package director

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"autodbaas/internal/cluster"
	"autodbaas/internal/dfa"
	"autodbaas/internal/knobs"
	"autodbaas/internal/orchestrator"
	"autodbaas/internal/tde"
	"autodbaas/internal/tuner"
)

// fakeTuner records calls and returns a canned recommendation.
type fakeTuner struct {
	mu    sync.Mutex
	name  string
	calls int
	rec   tuner.Recommendation
	err   error
}

func (f *fakeTuner) Name() string               { return f.name }
func (f *fakeTuner) Observe(tuner.Sample) error { return nil }
func (f *fakeTuner) Recommend(tuner.Request) (tuner.Recommendation, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	return f.rec, f.err
}

func setup(t *testing.T, tuners ...tuner.Tuner) (*Director, *orchestrator.Orchestrator, *cluster.Instance) {
	t.Helper()
	orch := orchestrator.New()
	inst, err := orch.Provision(cluster.ProvisionSpec{
		ID: "db-1", Plan: "m4.large", Engine: knobs.Postgres,
		DBSizeBytes: 10 * cluster.GiB, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir, err := New(orch, dfa.New(orch), tuners...)
	if err != nil {
		t.Fatal(err)
	}
	return dir, orch, inst
}

func goodRec() tuner.Recommendation {
	return tuner.Recommendation{Config: knobs.Config{"work_mem": 32 * 1024 * 1024}, Source: "fake"}
}

func throttleEvent(cls knobs.Class) tde.Event {
	return tde.Event{At: time.Now(), Kind: tde.KindThrottle, Class: cls, Knob: "work_mem", Entropy: math.NaN()}
}

func TestNewRequiresTuner(t *testing.T) {
	orch := orchestrator.New()
	if _, err := New(orch, dfa.New(orch)); err == nil {
		t.Fatal("empty tuner pool accepted")
	}
}

func TestThrottleEventTriggersRecommendationAndApply(t *testing.T) {
	ft := &fakeTuner{name: "fake", rec: goodRec()}
	dir, _, inst := setup(t, ft)
	err := dir.HandleEvent("db-1", throttleEvent(knobs.Memory), tuner.Request{Engine: knobs.Postgres})
	if err != nil {
		t.Fatal(err)
	}
	if ft.calls != 1 {
		t.Fatalf("tuner calls = %d", ft.calls)
	}
	if inst.Replica.Master().Config()["work_mem"] != 32*1024*1024 {
		t.Fatal("recommendation not applied")
	}
	reqs, recs, fails, _ := dir.Counters()
	if reqs != 1 || recs != 1 || fails != 0 {
		t.Fatalf("counters: %d/%d/%d", reqs, recs, fails)
	}
}

func TestThrottleClassForwardedToTuner(t *testing.T) {
	var got *knobs.Class
	ft := &capturingTuner{rec: goodRec(), capture: func(r tuner.Request) { got = r.ThrottleClass }}
	dir, _, _ := setup(t, ft)
	if err := dir.HandleEvent("db-1", throttleEvent(knobs.BgWriter), tuner.Request{}); err != nil {
		t.Fatal(err)
	}
	if got == nil || *got != knobs.BgWriter {
		t.Fatalf("throttle class = %v", got)
	}
}

type capturingTuner struct {
	rec     tuner.Recommendation
	capture func(tuner.Request)
}

func (c *capturingTuner) Name() string               { return "capture" }
func (c *capturingTuner) Observe(tuner.Sample) error { return nil }
func (c *capturingTuner) Recommend(r tuner.Request) (tuner.Recommendation, error) {
	c.capture(r)
	return c.rec, nil
}

func TestRoundRobinLoadBalancing(t *testing.T) {
	a := &fakeTuner{name: "a", rec: goodRec()}
	b := &fakeTuner{name: "b", rec: goodRec()}
	dir, _, _ := setup(t, a, b)
	for i := 0; i < 6; i++ {
		if err := dir.RequestTuning("db-1", tuner.Request{}); err != nil {
			t.Fatal(err)
		}
	}
	if a.calls != 3 || b.calls != 3 {
		t.Fatalf("load balance: a=%d b=%d", a.calls, b.calls)
	}
}

func TestNotTrainedPropagates(t *testing.T) {
	ft := &fakeTuner{name: "cold", err: tuner.ErrNotTrained}
	dir, _, _ := setup(t, ft)
	err := dir.HandleEvent("db-1", throttleEvent(knobs.Memory), tuner.Request{})
	if !errors.Is(err, tuner.ErrNotTrained) {
		t.Fatalf("err = %v", err)
	}
	// The request is still counted (Fig. 9 counts requests, not successes).
	if requests, _, _, _ := dir.Counters(); requests != 1 {
		t.Fatal("request not counted")
	}
}

func TestUnknownInstance(t *testing.T) {
	ft := &fakeTuner{name: "fake", rec: goodRec()}
	dir, _, _ := setup(t, ft)
	if err := dir.HandleEvent("ghost", throttleEvent(knobs.Memory), tuner.Request{}); !errors.Is(err, ErrUnknownInstance) {
		t.Fatalf("err = %v", err)
	}
}

func TestPlanUpgradeCountsWithoutTuning(t *testing.T) {
	ft := &fakeTuner{name: "fake", rec: goodRec()}
	dir, _, _ := setup(t, ft)
	ev := tde.Event{Kind: tde.KindPlanUpgrade, Class: knobs.Memory, Entropy: 0.9}
	if err := dir.HandleEvent("db-1", ev, tuner.Request{}); err != nil {
		t.Fatal(err)
	}
	reqs, _, _, upgrades := dir.Counters()
	if reqs != 0 || upgrades != 1 || ft.calls != 0 {
		t.Fatalf("plan upgrade mis-handled: reqs=%d upgrades=%d calls=%d", reqs, upgrades, ft.calls)
	}
}

func TestApplyFailureCounted(t *testing.T) {
	bad := &fakeTuner{name: "bad", rec: tuner.Recommendation{
		Config: knobs.Config{"work_mem": 2 * cluster.GiB, "maintenance_work_mem": 8 * cluster.GiB},
	}}
	dir, _, inst := setup(t, bad)
	if err := dir.HandleEvent("db-1", throttleEvent(knobs.Memory), tuner.Request{}); err == nil {
		t.Fatal("OOM recommendation accepted")
	}
	_, _, fails, _ := dir.Counters()
	if fails != 1 {
		t.Fatalf("applyFailures = %d", fails)
	}
	if inst.Replica.Master().Down() {
		t.Fatal("master down after rejected recommendation")
	}
}

func TestMaintenanceWindowGrowsBufferToWorkingSet(t *testing.T) {
	ft := &fakeTuner{name: "fake", rec: goodRec()}
	dir, orch, inst := setup(t, ft)
	ws := 3.0 * cluster.GiB
	ev := tde.Event{Kind: tde.KindBufferAdvisory, Class: knobs.Memory, Knob: "shared_buffers", WorkingSet: ws, Entropy: math.NaN()}
	for i := 0; i < 5; i++ {
		if err := dir.HandleEvent("db-1", ev, tuner.Request{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := dir.MaintenanceWindow(inst); err != nil {
		t.Fatal(err)
	}
	got := inst.Replica.Master().Config()["shared_buffers"]
	if got != ws {
		t.Fatalf("buffer pool after maintenance = %.1f GiB, want 3", got/cluster.GiB)
	}
	if inst.Replica.Master().Restarts() == 0 {
		t.Fatal("maintenance window did not restart the node")
	}
	persisted, _ := orch.PersistedConfig("db-1")
	if persisted["shared_buffers"] != ws {
		t.Fatal("maintenance result not persisted")
	}
}

func TestMaintenanceWindowShrinksOnEntropyHit(t *testing.T) {
	// Recommendations kept proposing a smaller pool, and an entropy hit
	// says tunable knobs need room: shrink to the 99th percentile.
	small := knobs.Config{"shared_buffers": 512 * 1024 * 1024, "work_mem": 16 * 1024 * 1024}
	ft := &fakeTuner{name: "fake", rec: tuner.Recommendation{Config: small}}
	dir, _, inst := setup(t, ft)
	// Grow the pool first so there is something to shrink.
	master := inst.Replica.Master()
	if err := master.ApplyConfig(knobs.Config{"shared_buffers": 2 * cluster.GiB}, 0); err != nil {
		t.Fatal(err)
	}
	if err := master.Restart(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := dir.HandleEvent("db-1", throttleEvent(knobs.Memory), tuner.Request{}); err != nil {
			t.Fatal(err)
		}
	}
	upgrade := tde.Event{Kind: tde.KindPlanUpgrade, Class: knobs.Memory, Entropy: 0.95}
	if err := dir.HandleEvent("db-1", upgrade, tuner.Request{}); err != nil {
		t.Fatal(err)
	}
	if err := dir.MaintenanceWindow(inst); err != nil {
		t.Fatal(err)
	}
	if got := master.Config()["shared_buffers"]; got != 512*1024*1024 {
		t.Fatalf("pool = %.0f MiB after shrink window, want 512", got/(1<<20))
	}
}

func TestMaintenanceWindowNoopWithoutSignals(t *testing.T) {
	ft := &fakeTuner{name: "fake", rec: goodRec()}
	dir, _, inst := setup(t, ft)
	before := inst.Replica.Master().Restarts()
	if err := dir.MaintenanceWindow(inst); err != nil {
		t.Fatal(err)
	}
	if inst.Replica.Master().Restarts() != before {
		t.Fatal("maintenance restarted without any advisory")
	}
}

func TestPercentile(t *testing.T) {
	if percentile(nil, 0.99) != 0 {
		t.Fatal("empty percentile")
	}
	vs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(vs, 0.99); got != 10 {
		t.Fatalf("p99 = %g", got)
	}
	if got := percentile(vs, 0.5); got != 5 {
		t.Fatalf("p50 = %g", got)
	}
}
