package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"autodbaas/internal/cluster"
	"autodbaas/internal/fleet"
	"autodbaas/internal/knobs"
	"autodbaas/internal/monitor"
	"autodbaas/internal/repository"
	"autodbaas/internal/shard"
	"autodbaas/internal/simdb"
	"autodbaas/internal/sqlparse"
	"autodbaas/internal/tde"
	"autodbaas/internal/tenant"
	"autodbaas/internal/tuner"
	"autodbaas/internal/workload"
)

// Layer probes replay one public function a fixed number of times on
// inputs drawn from the workload's own cohort, and report time and
// allocations per call. They run after the traced pass, in the same
// process, and never touch the service that was measured.

// queriesPerWindow is what simdb prices per window (its sample cap);
// probes draw the same number.
const queriesPerWindow = 192

// templateCacheEntries is the sqlparse template cache's capacity
// (16 shards of 2048); the fleet probe's working set must exceed it.
const templateCacheEntries = 16 * 2048

// probeInstance is one cohort member as the probes see it.
type probeInstance struct {
	blueprint string
	engine    knobs.Engine
	plan      cluster.VMType
	gen       workload.Generator
}

// probeCohort materializes the plan's initial cohort the way the fleet
// would: blueprint workload, the declaration's plan and load shape.
func probeCohort(p *plan) ([]probeInstance, error) {
	bps := p.Blueprints
	if bps == nil {
		bps = tenant.DefaultBlueprints()
	}
	var out []probeInstance
	for _, db := range p.Databases {
		bp, ok := bps[db.Spec.Blueprint]
		if !ok {
			return nil, fmt.Errorf("probe: unknown blueprint %q", db.Spec.Blueprint)
		}
		wl := bp.Workload
		if db.Spec.Shape != nil {
			wl.Shape = db.Spec.Shape
		}
		gen, err := wl.Build()
		if err != nil {
			return nil, err
		}
		planName := db.Spec.Plan
		if planName == "" {
			planName = bp.Plan
		}
		vm, err := cluster.TypeByName(planName)
		if err != nil {
			return nil, err
		}
		out = append(out, probeInstance{blueprint: bp.Name, engine: knobs.Engine(bp.Engine), plan: vm, gen: gen})
	}
	return out, nil
}

// perBlueprint runs fn on the first instance of each blueprint and
// returns the cohort-weighted mean of its two results.
func perBlueprint(cohort []probeInstance, fn func(probeInstance) (a, b float64, err error)) (float64, float64, error) {
	counts := make(map[string]int)
	var order []probeInstance
	for _, pi := range cohort {
		if counts[pi.blueprint] == 0 {
			order = append(order, pi)
		}
		counts[pi.blueprint]++
	}
	var sa, sb float64
	for _, pi := range order {
		a, b, err := fn(pi)
		if err != nil {
			return 0, 0, err
		}
		w := float64(counts[pi.blueprint]) / float64(len(cohort))
		sa += w * a
		sb += w * b
	}
	return sa, sb, nil
}

// timed runs fn n times and returns nanoseconds and heap allocations
// per call.
func timed(n int, fn func()) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	took := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(took.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

func (pi probeInstance) engineFor(seed int64) (*simdb.Engine, error) {
	return simdb.NewEngine(simdb.Options{
		Engine: pi.engine, Resources: pi.plan.Resources(), DBSizeBytes: pi.gen.DBSizeBytes(), Seed: seed,
	})
}

// runProbes fills the probe-sourced ledger entries.
func runProbes(p *plan, sz sizing, sharded bool, set func(string, float64)) error {
	cohort, err := probeCohort(p)
	if err != nil {
		return err
	}
	reps := 200
	if sz.Quick {
		reps = 10
	}
	window := p.window()

	// workload: drawing one window's queries.
	ns, allocs, err := perBlueprint(cohort, func(pi probeInstance) (float64, float64, error) {
		rng := rand.New(rand.NewSource(1))
		ns, allocs := timed(reps, func() { workload.Window(pi.gen, rng, queriesPerWindow) })
		return ns / queriesPerWindow, allocs / queriesPerWindow, nil
	})
	if err != nil {
		return err
	}
	set("workload.sample_ns", ns)
	set("workload.sample_allocs", allocs)

	probeSQLParse(cohort, reps, sz.Quick, set)

	// simdb: pricing one window.
	us, allocs, err := perBlueprint(cohort, func(pi probeInstance) (float64, float64, error) {
		eng, err := pi.engineFor(1)
		if err != nil {
			return 0, 0, err
		}
		var runErr error
		ns, allocs := timed(reps, func() {
			if _, err := eng.RunWindow(pi.gen, window); err != nil {
				runErr = err
			}
		})
		return ns / 1e3, allocs, runErr
	})
	if err != nil {
		return err
	}
	set("simdb.window_us", us)
	set("simdb.window_allocs", allocs)

	// tde: one detection round after a window (the window itself is
	// outside the timer).
	us, _, err = perBlueprint(cohort, func(pi probeInstance) (float64, float64, error) {
		eng, err := pi.engineFor(2)
		if err != nil {
			return 0, 0, err
		}
		td, err := tde.New(eng, tde.DefaultConfig(), nil)
		if err != nil {
			return 0, 0, err
		}
		var total time.Duration
		for i := 0; i < reps; i++ {
			if _, err := eng.RunWindow(pi.gen, window); err != nil {
				return 0, 0, err
			}
			start := time.Now()
			td.Tick()
			total += time.Since(start)
		}
		return float64(total.Microseconds()) / float64(reps), 0, nil
	})
	if err != nil {
		return err
	}
	set("tde.tick_us", us)

	// monitor: one series append.
	mon := monitor.NewAgent(100_000).Series("probe")
	at := workload.SimEpoch
	ns, _ = timed(reps*100, func() {
		at = at.Add(time.Second)
		_ = mon.Append(at, 1) // timestamps strictly increase
	})
	set("monitor.append_ns", ns)

	// repository: Observe plus the Flush the merge phase pays per
	// instance, with one subscriber.
	repo := repository.New()
	repo.Subscribe(nullTuner{})
	sample := tuner.Sample{WorkloadID: "probe/w", Engine: knobs.Postgres, Objective: 1}
	var obsErr error
	ns, _ = timed(reps*20, func() {
		if err := repo.Observe(sample); err != nil {
			obsErr = err
		}
		repo.Flush()
	})
	repo.Close()
	if obsErr != nil {
		return obsErr
	}
	set("repository.observe_ns", ns)

	speedup, err := probeParallelSpeedup(p, sz)
	if err != nil {
		return err
	}
	set("core.parallel_speedup", speedup)

	if sharded {
		ns, size, err := probeFrame(reps * 10)
		if err != nil {
			return err
		}
		set("shard.frame_ns", ns)
		set("shard.frame_bytes", size)
	}
	return nil
}

// probeSQLParse times TemplateOf two ways: re-reading one instance's
// window (every lookup a cache hit) and reading the whole cohort's
// windows interleaved, a working set larger than the cache.
func probeSQLParse(cohort []probeInstance, reps int, quick bool, set func(string, float64)) {
	rng := rand.New(rand.NewSource(1))
	lines := func(pi probeInstance, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = pi.gen.Sample(rng).SQL
		}
		return out
	}

	sqlparse.ResetTemplateCache()
	one := lines(cohort[0], queriesPerWindow)
	for _, s := range one {
		sqlparse.TemplateOf(s)
	}
	ns, _ := timed(reps, func() {
		for _, s := range one {
			sqlparse.TemplateOf(s)
		}
	})
	set("sqlparse.template_ns_warm", ns/float64(len(one)))

	sqlparse.ResetTemplateCache()
	perInstance := templateCacheEntries*5/4/len(cohort) + 1
	perInstance = (perInstance + queriesPerWindow - 1) / queriesPerWindow * queriesPerWindow
	if quick {
		perInstance = queriesPerWindow // smoke size: fits the cache
	}
	all := make([][]string, len(cohort))
	for i, pi := range cohort {
		all[i] = lines(pi, perInstance)
	}
	var interleaved []string
	for off := 0; off < perInstance; off += queriesPerWindow {
		for i := range all {
			interleaved = append(interleaved, all[i][off:off+queriesPerWindow]...)
		}
	}
	pass := func() {
		for _, s := range interleaved {
			sqlparse.TemplateOf(s)
		}
	}
	pass() // fill
	ns, _ = timed(2, pass)
	set("sqlparse.template_ns_fleet", ns/float64(len(interleaved)))
	sqlparse.ResetTemplateCache()
}

// nullTuner is the repository probe's subscriber: it accepts samples
// and does nothing, so the probe prices the fan-out alone.
type nullTuner struct{}

func (nullTuner) Name() string               { return "null" }
func (nullTuner) Observe(tuner.Sample) error { return nil }
func (nullTuner) Recommend(tuner.Request) (tuner.Recommendation, error) {
	return tuner.Recommendation{}, tuner.ErrNotTrained
}

// probeParallelSpeedup steps the plan's cohort on the flat engine at
// Parallelism 1 and at Parallelism nproc and returns the ratio of the
// two wall times. Only the window phase can spread across workers, so
// the merge share bounds it.
func probeParallelSpeedup(p *plan, sz sizing) (float64, error) {
	windows := 40
	if sz.Quick {
		windows = 4
	}
	run := func(parallelism int) (time.Duration, error) {
		t, err := newTuner(p.TunerSeed)
		if err != nil {
			return 0, err
		}
		svc, err := fleet.New(fleet.Config{
			Seed: p.FleetSeed, Parallelism: parallelism, Tuners: []tuner.Tuner{t},
			Tiers: p.Tiers, Blueprints: p.Blueprints,
		})
		if err != nil {
			return 0, err
		}
		for _, tn := range p.Tenants {
			if err := svc.CreateTenant(tn); err != nil {
				return 0, err
			}
		}
		for _, db := range p.Databases {
			if err := svc.CreateDatabase(db.Tenant, db.Spec); err != nil {
				return 0, err
			}
		}
		// The provisioning tick is not part of the comparison.
		if _, err := svc.Step(p.window()); err != nil {
			return 0, err
		}
		start := time.Now()
		for w := 0; w < windows; w++ {
			if _, err := svc.Step(p.window()); err != nil {
				return 0, err
			}
		}
		return time.Since(start), svc.Close()
	}
	serial, err := run(1)
	if err != nil {
		return 0, err
	}
	parallel, err := run(runtime.NumCPU())
	if err != nil {
		return 0, err
	}
	return ratio(serial.Seconds(), parallel.Seconds()), nil
}

// probeFrame times one WriteFrame plus ReadFrame of a response the size
// a 30-instance shard returns from Step, and reports the frame's size.
func probeFrame(n int) (ns, size float64, err error) {
	res := shard.StepResult{Window: 100, Throttles: 3, Events: map[string]int{"throttle": 3, "buffer-advisory": 30},
		P99Ms: make(map[string]float64)}
	for i := 0; i < 30; i++ {
		res.P99Ms[fmt.Sprintf("acct%d/db%03d", i%6, i)] = 12.5 + float64(i)
	}
	result, err := json.Marshal(res)
	if err != nil {
		return 0, 0, err
	}
	// The response envelope the worker sends: an ID and the raw result.
	payload, err := json.Marshal(struct {
		ID     uint64          `json:"id"`
		Result json.RawMessage `json:"result"`
	}{ID: 1, Result: result})
	if err != nil {
		return 0, 0, err
	}
	var buf bytes.Buffer
	var frameErr error
	ns, _ = timed(n, func() {
		buf.Reset()
		if err := shard.WriteFrame(&buf, shard.FrameResponse, payload); err != nil {
			frameErr = err
		}
		size = float64(buf.Len())
		if _, _, err := shard.ReadFrame(&buf); err != nil {
			frameErr = err
		}
	})
	return ns, size, frameErr
}
