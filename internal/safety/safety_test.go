package safety

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"autodbaas/internal/knobs"
	"autodbaas/internal/simdb"
	"autodbaas/internal/workload"
)

// newMaster builds a warm engine with a populated query log: a few
// windows of TPCC traffic so the canary's Explain phase has statements
// to price and the probe clones inherit a realistic cache state.
func newMaster(t *testing.T) (*simdb.Engine, workload.Generator) {
	t.Helper()
	gen := workload.NewTPCC(12*workload.GiB, 1500)
	e, err := simdb.NewEngine(simdb.Options{
		Engine:      knobs.Postgres,
		Resources:   simdb.Resources{MemoryBytes: 16 * workload.GiB, VCPU: 4, DiskIOPS: 6000, DiskSSD: true},
		DBSizeBytes: gen.DBSizeBytes(),
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := e.RunWindow(gen, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	return e, gen
}

// warmGate runs id past the bootstrap threshold with healthy windows.
func warmGate(t *testing.T, g *Gate, id string, n int) simdb.WindowStats {
	t.Helper()
	stats := simdb.WindowStats{Duration: time.Minute, Offered: 1000, Achieved: 950, P99Ms: 20}
	for i := 0; i < n; i++ {
		if _, rb := g.ObserveWindow(id, nil, stats, true); rb {
			t.Fatal("unexpected rollback while warming")
		}
	}
	return stats
}

func TestBootstrapAllowsEverything(t *testing.T) {
	master, gen := newMaster(t)
	g := NewGate(DefaultOptions())
	g.RegisterWorkload("db", gen)

	// No quality windows yet: even an absurdly distant candidate passes.
	far := master.Config().Clone()
	for _, n := range master.KnobCatalog().TunableNames() {
		far[n] = master.KnobCatalog().Def(n).Max
	}
	if dec := g.Admit("db", master, far); !dec.Allow {
		t.Fatalf("bootstrap admit vetoed: %s (%s)", dec.Reason, dec.Detail)
	}
	if _, _, ok := g.TrustCenter("db", master.Config()); ok {
		t.Fatal("TrustCenter reported a constraint during bootstrap")
	}
}

func TestTrustRegionVetoesDistantCandidate(t *testing.T) {
	master, gen := newMaster(t)
	g := NewGate(DefaultOptions())
	g.RegisterWorkload("db", gen)
	warmGate(t, g, "db", g.Options().MinQualityWindows)

	kcat := master.KnobCatalog()
	far := master.Config().Clone()
	for _, n := range kcat.TunableNames() {
		far[n] = kcat.Def(n).Max
	}
	dec := g.Admit("db", master, far)
	if dec.Allow || dec.Reason != ReasonTrustRegion {
		t.Fatalf("distant candidate: allow=%v reason=%q, want trust_region veto", dec.Allow, dec.Reason)
	}

	center, radius, ok := g.TrustCenter("db", master.Config())
	if !ok || radius != g.Options().InitialRadius {
		t.Fatalf("TrustCenter = (%v, %v, %v)", center, radius, ok)
	}
	if !center.Equal(master.Config()) {
		t.Fatal("pre-promotion trust center should be the live config")
	}

	vetoes, _, _, _ := g.Totals()
	if vetoes != 1 {
		t.Fatalf("vetoes = %d, want 1", vetoes)
	}
}

func TestCanaryAllowsIdenticalConfig(t *testing.T) {
	// The current config replayed against itself cannot regress: trial
	// and control clones are bit-identical simulations.
	master, gen := newMaster(t)
	g := NewGate(DefaultOptions())
	g.RegisterWorkload("db", gen)
	warmGate(t, g, "db", g.Options().MinQualityWindows)

	dec := g.Admit("db", master, master.Config())
	if !dec.Allow {
		t.Fatalf("identical config vetoed: %s (%s)", dec.Reason, dec.Detail)
	}
	_, canaries, _, _ := g.Totals()
	if canaries != 1 {
		t.Fatalf("canary runs = %d, want 1", canaries)
	}
}

func TestCanaryVetoesCrashingConfig(t *testing.T) {
	// A candidate whose memory footprint busts the instance crashes the
	// trial clone on apply — the canary must catch it before the fleet
	// ever sees it.
	gen := workload.NewTPCC(12*workload.GiB, 1500)
	master, err := simdb.NewEngine(simdb.Options{
		Engine:      knobs.Postgres,
		Resources:   simdb.Resources{MemoryBytes: 2 * workload.GiB, VCPU: 2, DiskIOPS: 3000, DiskSSD: true},
		DBSizeBytes: gen.DBSizeBytes(),
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := master.RunWindow(gen, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	// Wide-open trust region so the canary, not the region, decides.
	opts := DefaultOptions()
	opts.InitialRadius = 1.0
	g := NewGate(opts)
	g.RegisterWorkload("db", gen)
	warmGate(t, g, "db", opts.MinQualityWindows)

	kcat := master.KnobCatalog()
	oom := master.Config().Clone()
	oom["shared_buffers"] = kcat.Def("shared_buffers").Max
	oom["work_mem"] = kcat.Def("work_mem").Max
	dec := g.Admit("db", master, oom)
	if dec.Allow {
		t.Fatal("OOM candidate admitted")
	}
	if dec.Reason != ReasonCanaryApply && dec.Reason != ReasonExplain {
		t.Fatalf("reason = %q, want canary_apply or explain", dec.Reason)
	}
	// The live master must be untouched — probes run on clones.
	if master.Down() {
		t.Fatal("canary crashed the live master")
	}
}

func TestWatchRollsBackRegression(t *testing.T) {
	g := NewGate(DefaultOptions())
	base := warmGate(t, g, "db", 5)

	pre := knobs.Config{"work_mem": 4, "shared_buffers": 128}
	applied := knobs.Config{"work_mem": 64, "shared_buffers": 1024}
	g.NotifyApplied("db", applied, pre)

	// First window after the apply carries pre-apply stats: skipped.
	if _, rb := g.ObserveWindow("db", nil, base, true); rb {
		t.Fatal("pending-arm window triggered a rollback")
	}
	// A faulted window proves nothing: still watching.
	if _, rb := g.ObserveWindow("db", nil, simdb.WindowStats{}, false); rb {
		t.Fatal("faulted window triggered a rollback")
	}
	// A regressing window (throughput down 40%) must roll back to pre.
	bad := base
	bad.Achieved = base.Achieved * 0.6
	to, rb := g.ObserveWindow("db", nil, bad, true)
	if !rb {
		t.Fatal("regressing window did not roll back")
	}
	if !to.Equal(pre) {
		t.Fatalf("rollback target = %v, want pre-apply %v", to, pre)
	}
	st, ok := g.Status("db")
	if !ok || st.Rollbacks != 1 || st.RegressingApplies != 1 || st.Watching {
		t.Fatalf("status after rollback = %+v", st)
	}
	if st.TrustRadius >= DefaultOptions().InitialRadius {
		t.Fatalf("radius %v did not shrink after regression", st.TrustRadius)
	}
	// The regressing window must not pollute the baseline.
	if st.BaselineObj != 950 {
		t.Fatalf("baseline moved to %v during watch", st.BaselineObj)
	}
}

func TestWatchClearsEnvironmentalDip(t *testing.T) {
	// A dip the counterfactual cannot blame on the config — here the
	// watched config and the rollback config are the same, so trial and
	// control clones are bit-identical — must neither count as a
	// regressing apply nor roll back: under fault injection and load
	// shifts a dip alone proves nothing.
	master, gen := newMaster(t)
	g := NewGate(DefaultOptions())
	g.RegisterWorkload("db", gen)
	base := warmGate(t, g, "db", 5)

	cfg := master.Config().Clone()
	g.NotifyApplied("db", cfg, cfg)
	g.ObserveWindow("db", master, base, true) // pending-arm skip
	bad := base
	bad.Achieved = base.Achieved * 0.5
	if to, rb := g.ObserveWindow("db", master, bad, true); rb {
		t.Fatalf("environmental dip rolled back to %v", to)
	}
	st, _ := g.Status("db")
	if st.RegressingApplies != 0 || st.Rollbacks != 0 {
		t.Fatalf("environmental dip counted as a regression: %+v", st)
	}
	if st.CanaryRuns == 0 {
		t.Fatal("attribution probe did not run")
	}
	if !st.Watching {
		t.Fatal("watch ended early — the dip window should still count toward it")
	}
}

func TestWatchPromotesKnownGood(t *testing.T) {
	g := NewGate(DefaultOptions())
	base := warmGate(t, g, "db", 5)

	applied := knobs.Config{"work_mem": 64}
	g.NotifyApplied("db", applied, knobs.Config{"work_mem": 4})
	g.ObserveWindow("db", nil, base, true) // pending-arm skip
	for i := 0; i < g.Options().WatchWindows; i++ {
		if _, rb := g.ObserveWindow("db", nil, base, true); rb {
			t.Fatal("healthy window rolled back")
		}
	}
	st, _ := g.Status("db")
	if !st.HasKnownGood || st.Watching {
		t.Fatalf("status after survival = %+v", st)
	}
	if st.TrustRadius <= DefaultOptions().InitialRadius {
		t.Fatalf("radius %v did not grow after survival", st.TrustRadius)
	}
	center, _, ok := g.TrustCenter("db", knobs.Config{"work_mem": 1})
	if !ok || !center.Equal(applied) {
		t.Fatalf("trust center = %v, want promoted %v", center, applied)
	}
}

func TestRadiusClamps(t *testing.T) {
	opts := DefaultOptions()
	g := NewGate(opts)
	base := warmGate(t, g, "db", 5)

	// Repeated regressions floor the radius at MinRadius.
	for i := 0; i < 10; i++ {
		g.NotifyApplied("db", knobs.Config{"work_mem": 64}, knobs.Config{"work_mem": 4})
		g.ObserveWindow("db", nil, base, true) // pending-arm skip
		bad := base
		bad.Achieved = 1
		g.ObserveWindow("db", nil, bad, true)
	}
	st, _ := g.Status("db")
	if st.TrustRadius != opts.MinRadius {
		t.Fatalf("radius = %v, want floor %v", st.TrustRadius, opts.MinRadius)
	}

	// Repeated survivals cap it at MaxRadius.
	for i := 0; i < 20; i++ {
		g.NotifyApplied("db", knobs.Config{"work_mem": 64}, knobs.Config{"work_mem": 4})
		g.ObserveWindow("db", nil, base, true)
		for j := 0; j < opts.WatchWindows; j++ {
			g.ObserveWindow("db", nil, base, true)
		}
	}
	st, _ = g.Status("db")
	if st.TrustRadius != opts.MaxRadius {
		t.Fatalf("radius = %v, want cap %v", st.TrustRadius, opts.MaxRadius)
	}
}

func TestStateRoundTrip(t *testing.T) {
	g := NewGate(DefaultOptions())
	base := warmGate(t, g, "a", 5)
	warmGate(t, g, "b", 2)
	g.RecordKnownGood("a", knobs.Config{"work_mem": 8})
	g.NotifyApplied("a", knobs.Config{"work_mem": 64}, knobs.Config{"work_mem": 8})
	g.ObserveWindow("a", nil, base, true)
	bad := base
	bad.Achieved = 1
	g.ObserveWindow("a", nil, bad, true)

	blob, err := g.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	// Marshalling is deterministic: byte-for-byte repeatable.
	again, _ := g.MarshalState()
	if !bytes.Equal(blob, again) {
		t.Fatal("MarshalState is not byte-stable")
	}

	g2 := NewGate(DefaultOptions())
	if err := g2.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	blob2, err := g2.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("state changed across marshal/restore/marshal")
	}
	sa, _ := g.Status("a")
	sb, _ := g2.Status("a")
	if sa != sb {
		t.Fatalf("restored status %+v != original %+v", sb, sa)
	}
	v1, c1, r1, x1 := g.Totals()
	v2, c2, r2, x2 := g2.Totals()
	if v1 != v2 || c1 != c2 || r1 != r2 || x1 != x2 {
		t.Fatal("totals diverged across restore")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	g := NewGate(DefaultOptions())
	if err := g.RestoreState([]byte("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if err := g.RestoreState([]byte(`{"version":99}`)); err == nil {
		t.Fatal("future version accepted")
	}
}

func TestForgetDropsState(t *testing.T) {
	g := NewGate(DefaultOptions())
	warmGate(t, g, "db", 5)
	g.Forget("db")
	if _, ok := g.Status("db"); ok {
		t.Fatal("status survived Forget")
	}
	if _, _, ok := g.TrustCenter("db", knobs.Config{}); ok {
		t.Fatal("trust center survived Forget")
	}
}

func TestConcurrentStatusReads(t *testing.T) {
	// The gate's lock exists for the HTTP status surface reading while
	// the scheduler observes windows; exercise that under the race
	// detector.
	g := NewGate(DefaultOptions())
	stats := simdb.WindowStats{Duration: time.Minute, Offered: 1000, Achieved: 950, P99Ms: 20}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				g.ObserveWindow("db", nil, stats, true)
				g.Status("db")
				g.Totals()
				g.TrustCenter("db", knobs.Config{"work_mem": 4})
			}
		}()
	}
	wg.Wait()
}

// TestValidateExplainStatements: the Explain phase may ask for at most
// the engine query log's capacity; a larger value is an error, not a
// silently shorter read. Zero and negative values take the default.
func TestValidateExplainStatements(t *testing.T) {
	for _, tc := range []struct {
		n  int
		ok bool
	}{
		{-1, true},
		{0, true},
		{DefaultOptions().ExplainStatements, true},
		{simdb.DefaultQueryLogSize, true},
		{simdb.DefaultQueryLogSize + 1, false},
		{4096, false},
	} {
		o := DefaultOptions()
		o.ExplainStatements = tc.n
		if err := o.Validate(); (err == nil) != tc.ok {
			t.Errorf("explain_statements %d: Validate() = %v, want ok=%v", tc.n, err, tc.ok)
		}
	}
}
