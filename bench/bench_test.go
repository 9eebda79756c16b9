package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"autodbaas/internal/shard"
	"autodbaas/internal/tde"
	"autodbaas/internal/tenant"
	"autodbaas/internal/tuner"
)

var quick = sizing{Quick: true}

func ramp(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // descending: percentile must sort
	}
	return out
}

func TestPercentileLeavesTenBeyond(t *testing.T) {
	got, err := percentile(ramp(200), 95)
	if err != nil {
		t.Fatal(err)
	}
	if got != 190 {
		t.Fatalf("p95 of 1..200 = %v, want 190 (ten samples beyond it)", got)
	}
	if _, err := percentile(ramp(199), 95); err == nil {
		t.Fatal("p95 of 199 samples leaves 9 beyond it and must be refused")
	}
	if v, err := percentile(ramp(20), 50); err != nil || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	if _, err := percentile(ramp(19), 50); err == nil {
		t.Fatal("p50 of 19 samples must be refused")
	}
	for _, p := range []float64{0, 100, -1} {
		if _, err := percentile(ramp(500), p); err == nil {
			t.Fatalf("percentile %v must be refused", p)
		}
	}
}

func TestTailPercentileFallsBack(t *testing.T) {
	v, p, err := tailPercentile(ramp(240))
	if err != nil || p != 95 || v != 228 {
		t.Fatalf("240 samples: got %v at p%v, %v; want 228 at p95", v, p, err)
	}
	v, p, err = tailPercentile(ramp(20))
	if err != nil || p != 50 || v != 10 {
		t.Fatalf("20 samples: got %v at p%v, %v; want 10 at p50", v, p, err)
	}
	if _, _, err := tailPercentile(ramp(10)); err == nil {
		t.Fatal("10 samples leave no percentile with ten beyond it")
	}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "step", Start: 0, End: 100},
		// Two shards stepping at once: their union covers [10,70).
		{ID: 2, Name: "shard/a", Parent: 1, Start: 10, End: 50},
		{ID: 3, Name: "shard/b", Parent: 1, Start: 30, End: 70},
		// Nested under a child, not under the step.
		{ID: 4, Name: "rpc", Parent: 2, Start: 20, End: 30},
		// A child that outlives its parent is clipped to it.
		{ID: 5, Name: "late", Parent: 1, Start: 90, End: 130},
		// Fully inside an already covered stretch: adds nothing.
		{ID: 6, Name: "inner", Parent: 1, Start: 35, End: 45},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 60 - 10, 2: 40 - 10, 3: 40, 4: 10, 5: 40, 6: 10}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
}

func TestRecorderParentsAndWindows(t *testing.T) {
	r := newRecorder()
	r.setWindow(7)
	_ = r.scope("outer", func() error {
		id := r.begin("inner")
		r.end(id)
		return nil
	})
	after := r.begin("after")
	r.end(after)
	spans := r.snapshot()
	if len(spans) != 3 || spans[1].Parent != spans[0].ID || spans[2].Parent != 0 {
		t.Fatalf("parents wrong: %+v", spans)
	}
	for _, s := range spans {
		if s.Window != 7 || s.End < s.Start {
			t.Fatalf("span %+v: want window 7 and end >= start", s)
		}
	}
	var none *recorder // the untraced pass
	none.setWindow(1)
	none.end(none.begin("x"))
	if err := none.scope("y", func() error { return nil }); err != nil || none.snapshot() != nil {
		t.Fatal("nil recorder must be inert")
	}
}

func TestPlansAreAFunctionOfTheSeed(t *testing.T) {
	for _, d := range workloadDefs {
		for _, sz := range []sizing{quick, {Seconds: referenceSeconds}} {
			a, err := buildPlan(d.Name, 1, sz, 2)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := buildPlan(d.Name, 1, sz, 2)
			c, _ := buildPlan(d.Name, 2, sz, 2)
			ja, _ := json.Marshal(a)
			jb, _ := json.Marshal(b)
			jc, _ := json.Marshal(c)
			if !bytes.Equal(ja, jb) {
				t.Errorf("%s: same seed gave different plans", d.Name)
			}
			if bytes.Equal(ja, jc) {
				t.Errorf("%s: seeds 1 and 2 gave the same plan", d.Name)
			}
			if len(a.ExpectedInstanceWindows) != a.Windows {
				t.Errorf("%s: %d expected-cohort entries for %d windows", d.Name, len(a.ExpectedInstanceWindows), a.Windows)
			}
		}
	}
}

func TestSeedPermutesButNeverResizesTheCohort(t *testing.T) {
	count := func(p *plan) map[string]int {
		out := make(map[string]int)
		for _, db := range p.Databases {
			out[db.Spec.Blueprint]++
		}
		return out
	}
	full := sizing{Seconds: referenceSeconds}
	for _, name := range []string{steadyFleet, tuningStorm} {
		base, _ := buildPlan(name, 1, full, 2)
		for seed := int64(2); seed < 6; seed++ {
			p, _ := buildPlan(name, seed, full, 2)
			if !reflect.DeepEqual(count(p), count(base)) {
				t.Errorf("%s seed %d: blueprint counts %v, seed 1 has %v", name, seed, count(p), count(base))
			}
		}
	}
	steady, _ := buildPlan(steadyFleet, 3, full, 2)
	sharded, _ := buildPlan(shardedRPC, 3, full, 2)
	if !reflect.DeepEqual(steady.Databases, sharded.Databases) || steady.FleetSeed != sharded.FleetSeed {
		t.Error("sharded-rpc must run the steady-fleet cohort of the same seed")
	}
	if sharded.Workers != 2 {
		t.Errorf("sharded-rpc on 2 cpus wants 2 workers, got %d", sharded.Workers)
	}
	if one, _ := buildPlan(shardedRPC, 3, full, 1); one.Workers != 1 {
		t.Errorf("worker count must be clamped to nproc, got %d on 1 cpu", one.Workers)
	}
}

func TestChurnScheduleIsValidAgainstItsOwnModel(t *testing.T) {
	p, _ := buildPlan(tenantChurn, 5, sizing{Seconds: referenceSeconds}, 2)
	type state struct{ plan string }
	live := make(map[string]*state)
	for _, db := range p.Databases {
		live[db.Tenant+"/"+db.Spec.ID] = &state{plan: db.Spec.Plan}
	}
	perOp := make(map[string]int)
	for w, muts := range p.Churn {
		for _, m := range muts {
			key := m.Tenant + "/" + m.DB
			perOp[m.Op]++
			switch m.Op {
			case opCreate:
				if live[key] != nil {
					t.Fatalf("window %d: create of live %s", w, key)
				}
				live[key] = &state{plan: m.Spec.Plan}
			case opDelete:
				if live[key] == nil {
					t.Fatalf("window %d: delete of unknown %s", w, key)
				}
				delete(live, key)
			case opResize:
				if live[key] == nil || live[key].plan == m.Plan {
					t.Fatalf("window %d: resize of %s to %q is not a change", w, key, m.Plan)
				}
				live[key].plan = m.Plan
			}
		}
	}
	if perOp[opCreate] != 2*p.Windows || perOp[opDelete] != 2*p.Windows || perOp[opResize] != p.Windows {
		t.Fatalf("per-window churn is 2 creates, 2 deletes, 1 resize; got %v over %d windows", perOp, p.Windows)
	}
	if len(live) != len(p.Databases) {
		t.Fatalf("fleet drifted from %d to %d databases", len(p.Databases), len(live))
	}
}

// plainTuner has no tde.Baseline.
type plainTuner struct{ nullTuner }

func TestTunerDecoratorKeepsCapabilities(t *testing.T) {
	bo, err := newTuner(1)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, handle := wrapTuner(bo, newRecorder())
	if _, ok := wrapped.(tde.Baseline); !ok {
		t.Error("decorated BO tuner lost tde.Baseline")
	}
	u, ok := wrapped.(interface{ Unwrap() tuner.Tuner })
	if !ok || u.Unwrap() != bo {
		t.Error("decorated tuner must Unwrap to the tuner it wraps")
	}
	if wrapped.Name() != bo.Name() {
		t.Errorf("name %q, want %q", wrapped.Name(), bo.Name())
	}
	if _, err := wrapped.Recommend(tuner.Request{}); err == nil || handle.notTrainedCount() != 1 {
		t.Errorf("an untrained Recommend must pass its error through and be counted (err %v, count %d)", err, handle.notTrainedCount())
	}
	plain, _ := wrapTuner(plainTuner{}, newRecorder())
	if _, ok := plain.(tde.Baseline); ok {
		t.Error("decorator must not invent tde.Baseline")
	}
}

// TestTracedPassIsTransparent runs a quick fleet with and without the
// recorder and decorators: same throttles, same fingerprint, and a
// complete ledger.
func TestTracedPassIsTransparent(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{steadyFleet, tenantChurn} {
		var results [2]*runResult
		for i, traced := range []bool{false, true} {
			cl := &cleanup{}
			res, err := runPass(cl, childConfig{Workload: name, Seed: 4, Sizing: quick, Traced: traced, OutDir: dir})
			cl.run()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if err := res.check(); err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 {
				t.Fatalf("%s: %d of %d operations failed: %v", name, res.Failed, res.Attempted, res.Failures)
			}
			results[i] = res
		}
		plainRun, tracedRun := results[0], results[1]
		if plainRun.Fingerprint != tracedRun.Fingerprint || plainRun.Throttles != tracedRun.Throttles || plainRun.Attempted != tracedRun.Attempted {
			t.Errorf("%s: traced pass diverged: %s/%d/%d vs %s/%d/%d", name,
				tracedRun.Fingerprint, tracedRun.Throttles, tracedRun.Attempted,
				plainRun.Fingerprint, plainRun.Throttles, plainRun.Attempted)
		}
		if plainRun.Layer != nil {
			t.Errorf("%s: untraced pass produced a ledger", name)
		}
		for _, d := range perLayerMetrics {
			v, ok := tracedRun.Layer[d.Name]
			if d.Name == "bench.trace_overhead_pct" {
				continue // filled in by the orchestrator from both passes
			}
			if !ok {
				t.Errorf("%s: ledger lacks %s", name, d.Name)
			}
			if strings.HasPrefix(d.Name, "shard.") && !v.Absent {
				t.Errorf("%s: %s must be absent on a flat workload, got %v", name, d.Name, v.Value)
			}
		}
		if _, err := os.Stat(dir + "/trace-" + name + ".json"); err != nil {
			t.Errorf("%s: no trace file: %v", name, err)
		}
		if m := tracedRun.Layer["fleet.mutations"].Value; (m > 0) != (name == tenantChurn) {
			t.Errorf("%s: fleet.mutations = %v", name, m)
		}
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "run-") {
			t.Errorf("scratch directory %s survived the run", e.Name())
		}
	}
}

// newLocals builds two in-process shards holding the same small cohort.
func newLocals(t *testing.T) []*shard.Local {
	t.Helper()
	var out []*shard.Local
	for _, name := range []string{"s0", "s1"} {
		l, err := shard.NewLocal(shard.Config{Name: name, Seed: 7, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, l)
	}
	return out
}

func addCohort(t *testing.T, c *shard.Coordinator) {
	t.Helper()
	bp := tenant.DefaultBlueprints()["pg-oltp-small"]
	for i := 0; i < 6; i++ {
		err := c.AddInstance(shard.InstanceSpec{ID: "acct/" + dbID(i), Plan: bp.Plan, Engine: bp.Engine, Seed: int64(i), Workload: bp.Workload})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestShardDecoratorIsTransparentToTheCoordinator(t *testing.T) {
	const window = 5 * time.Minute
	bare := newLocals(t)
	plainCoord, err := shard.NewCoordinator(bare[0], bare[1])
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	inner := newLocals(t)
	timedCoord, err := shard.NewCoordinator(&timedShard{inner: inner[0], rec: rec}, &timedShard{inner: inner[1], rec: rec})
	if err != nil {
		t.Fatal(err)
	}
	addCohort(t, plainCoord)
	addCohort(t, timedCoord)
	for w := 0; w < 3; w++ {
		a, err := plainCoord.Step(window)
		if err != nil {
			t.Fatal(err)
		}
		b, err := timedCoord.Step(window)
		if err != nil {
			t.Fatalf("decorated shards failed the window-agreement check: %v", err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("window %d: decorated result %+v, bare %+v", w, b, a)
		}
	}
	fa, _ := plainCoord.Fingerprint()
	fb, _ := timedCoord.Fingerprint()
	if !reflect.DeepEqual(fa, fb) {
		t.Fatal("decorated coordinator's fingerprint differs")
	}
	if n := len(rec.snapshot()); n != 6 {
		t.Fatalf("3 windows over 2 shards should record 6 step spans, got %d", n)
	}
	// A shard that stepped behind the coordinator's back must still be
	// caught through the decorator.
	if _, err := inner[1].Step(window); err != nil {
		t.Fatal(err)
	}
	if _, err := timedCoord.Step(window); err == nil || !strings.Contains(err.Error(), "s1") {
		t.Fatalf("skewed shard s1 not reported through the decorator: %v", err)
	}
}

func TestWorkerThatNeverListensFailsFastWithStderr(t *testing.T) {
	// Re-exec'd as "-worker <sock>", the test binary rejects the flag
	// and exits: a worker that dies before listening.
	cl := &cleanup{}
	defer cl.run()
	start := time.Now()
	_, _, err := spawnWorkers(cl, t.TempDir(), "t", 1)
	if err == nil {
		t.Fatal("a worker that exits at once must fail the spawn")
	}
	if !strings.Contains(err.Error(), "exited before listening") || !strings.Contains(err.Error(), "stderr") {
		t.Fatalf("error should say the worker exited and carry its stderr: %v", err)
	}
	if took := time.Since(start); took > workerUpTimeout {
		t.Fatalf("took %v, limit %v", took, workerUpTimeout)
	}
}

func TestCleanupRunsOnceNewestFirst(t *testing.T) {
	var order []int
	cl := &cleanup{}
	cl.add(func() { order = append(order, 1) })
	cl.add(func() { order = append(order, 2) })
	cl.run()
	cl.run()
	cl.add(func() { order = append(order, 3) }) // after the fact: at once
	if !reflect.DeepEqual(order, []int{2, 1, 3}) {
		t.Fatalf("cleanup order %v, want [2 1 3]", order)
	}
}

func TestJoinBoolValue(t *testing.T) {
	got := joinBoolValue([]string{"--workload", "x", "--trace", "0", "--seed", "3", "-trace"}, "trace")
	want := []string{"--workload", "x", "--trace=0", "--seed", "3", "-trace"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestBenchmarkJSONMatchesTheTables keeps the declaration at the repo
// root and the tables the program reports from in step.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds != referenceSeconds {
		t.Errorf("run_seconds %d, sizes are calibrated for %d", decl.RunSeconds, referenceSeconds)
	}
	if len(decl.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads declared, %d defined", len(decl.Workloads), len(workloadDefs))
	}
	for i, d := range workloadDefs {
		if decl.Workloads[i].Name != d.Name || decl.Workloads[i].Why != d.Why {
			t.Errorf("workload %d: declared %+v, defined %+v", i, decl.Workloads[i], d)
		}
		if len(d.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", d.Name, len(d.Why))
		}
	}
	if len(decl.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics declared, %d defined", len(decl.EndToEnd), len(endToEndMetrics))
	}
	widest := 0.0
	for i, d := range endToEndMetrics {
		got := decl.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end %d: declared %+v, defined %+v", i, got, d)
		}
		widest = max(widest, d.Bound)
	}
	if endToEndMetrics[0].Name != "setup_s" || endToEndMetrics[0].Bound != widest {
		t.Error("setup_s must carry the widest bound")
	}
	if len(decl.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("%d per-layer metrics declared, %d defined", len(decl.PerLayer), len(perLayerMetrics))
	}
	for i, d := range perLayerMetrics {
		got := decl.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: declared %+v, defined %+v", i, got, d)
		}
	}
}
