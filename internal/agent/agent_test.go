package agent

import (
	"sync"
	"testing"
	"time"

	"autodbaas/internal/cluster"
	"autodbaas/internal/knobs"
	"autodbaas/internal/tde"
	"autodbaas/internal/tuner"
	"autodbaas/internal/workload"
)

type recordingSink struct {
	mu      sync.Mutex
	events  []tde.Event
	reqs    []tuner.Request // the request sent with each event
	tunings int
	samples []tuner.Sample
}

func (r *recordingSink) HandleEvent(_ string, ev tde.Event, req tuner.Request) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, ev)
	r.reqs = append(r.reqs, req)
	return nil
}

func (r *recordingSink) RequestTuning(string, tuner.Request) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tunings++
	return nil
}

func (r *recordingSink) Observe(s tuner.Sample) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples = append(r.samples, s)
	return nil
}

func provision(t *testing.T, id string) *cluster.Instance {
	t.Helper()
	prov := cluster.NewProvisioner()
	inst, err := prov.Provision(cluster.ProvisionSpec{
		ID: id, Plan: "m4.large", Engine: knobs.Postgres,
		DBSizeBytes: 21 * cluster.GiB, Slaves: 1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil, nil, nil, Options{}); err == nil {
		t.Fatal("nil instance accepted")
	}
	inst := provision(t, "db-v")
	if _, err := New(inst, nil, nil, nil, Options{}); err == nil {
		t.Fatal("nil generator accepted")
	}
	if _, err := New(inst, workload.NewTPCC(cluster.GiB, 100), nil, nil, Options{Mode: ModePeriodic}); err == nil {
		t.Fatal("ModePeriodic without TuningSink accepted")
	}
}

func TestTDEEventsDispatchedAndSamplesGated(t *testing.T) {
	inst := provision(t, "db-1")
	sink := &recordingSink{}
	gen := workload.NewAdulteratedTPCC(21*cluster.GiB, 3000, 0.8)
	a, err := New(inst, gen, sink, sink, Options{TickEvery: 5 * time.Minute, GateSamples: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, _, err := a.RunWindow(5 * time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	if len(sink.events) == 0 {
		t.Fatal("no events dispatched for a spill-heavy workload")
	}
	// A throttle carries the instance's tuning request; the other kinds
	// carry the zero request.
	kinds := map[tde.EventKind]int{}
	for i, ev := range sink.events {
		kinds[ev.Kind]++
		req := sink.reqs[i]
		if ev.Kind == tde.KindThrottle {
			if req.InstanceID != "db-1" || req.Current == nil || req.Metrics == nil {
				t.Fatalf("throttle %d carried an incomplete request %+v", i, req)
			}
		} else if req.InstanceID != "" || req.Current != nil || req.Metrics != nil {
			t.Fatalf("%s event %d carried a request", ev.Kind, i)
		}
	}
	if kinds[tde.KindThrottle] == 0 || kinds[tde.KindBufferAdvisory] == 0 {
		t.Fatalf("event kinds %v: need throttles and buffer advisories to check both", kinds)
	}
	if len(sink.samples) == 0 {
		t.Fatal("no samples uploaded despite throttles")
	}
	for _, s := range sink.samples {
		if !s.Quality {
			t.Fatal("gated upload produced a low-quality sample")
		}
	}
	if a.Uploaded() != len(sink.samples) {
		t.Fatalf("uploaded counter %d != %d", a.Uploaded(), len(sink.samples))
	}
}

func TestUngatedAgentUploadsEveryTick(t *testing.T) {
	inst := provision(t, "db-2")
	sink := &recordingSink{}
	gen := workload.NewYCSB(20*cluster.GiB, 5000) // quiet workload, no throttles expected
	a, err := New(inst, gen, sink, sink, Options{TickEvery: 5 * time.Minute, GateSamples: false})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, _, err := a.RunWindow(5 * time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	if len(sink.samples) != 6 {
		t.Fatalf("ungated agent uploaded %d samples, want 6", len(sink.samples))
	}
	var lowQuality int
	for _, s := range sink.samples {
		if !s.Quality {
			lowQuality++
		}
	}
	if lowQuality == 0 {
		t.Fatal("quiet workload produced no low-quality samples — the corruption vector is missing")
	}
}

func TestGatedAgentSuppressesQuietSamples(t *testing.T) {
	inst := provision(t, "db-3")
	sink := &recordingSink{}
	gen := workload.NewYCSB(20*cluster.GiB, 5000)
	a, err := New(inst, gen, sink, sink, Options{TickEvery: 5 * time.Minute, GateSamples: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, _, err := a.RunWindow(5 * time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	if a.Suppressed() == 0 {
		t.Fatal("gate never suppressed on a quiet workload")
	}
	for _, s := range sink.samples {
		if !s.Quality {
			t.Fatal("gated agent uploaded a low-quality sample")
		}
	}
}

func TestPeriodicModeFiresOnSchedule(t *testing.T) {
	inst := provision(t, "db-4")
	sink := &recordingSink{}
	gen := workload.NewYCSB(20*cluster.GiB, 5000)
	a, err := New(inst, gen, sink, sink, Options{
		TickEvery: time.Minute, Mode: ModePeriodic, PeriodicEvery: 5 * time.Minute, Tuning: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 30 minutes of 1-minute windows → 6 periodic requests.
	for i := 0; i < 30; i++ {
		if _, _, err := a.RunWindow(time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	if sink.tunings != 6 {
		t.Fatalf("periodic requests = %d, want 6", sink.tunings)
	}
	if len(sink.events) != 0 {
		t.Fatal("periodic mode dispatched TDE events")
	}
}

func TestTickCadenceRespected(t *testing.T) {
	inst := provision(t, "db-5")
	gen := workload.NewYCSB(20*cluster.GiB, 5000)
	a, err := New(inst, gen, nil, nil, Options{TickEvery: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ { // 10 one-minute windows = 1 tick
		if _, _, err := a.RunWindow(time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.TDE().Ticks(); got != 1 {
		t.Fatalf("ticks = %d, want 1", got)
	}
}

func TestSlavesRunTheWorkloadToo(t *testing.T) {
	inst := provision(t, "db-6")
	gen := workload.NewTPCC(21*cluster.GiB, 3000)
	a, err := New(inst, gen, nil, nil, Options{TickEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.RunWindow(time.Minute); err != nil {
		t.Fatal(err)
	}
	for i, s := range inst.Replica.Slaves() {
		if s.Snapshot()["xact_commit"] <= 0 {
			t.Fatalf("slave %d did not execute the workload", i)
		}
	}
}
