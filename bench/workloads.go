package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"

	"autodbaas/internal/fleet"
	"autodbaas/internal/tenant"
	"autodbaas/internal/workload"
)

// Workload names, in the order a full set runs them.
const (
	steadyFleet = "steady-fleet"
	tuningStorm = "tuning-storm"
	shardedRPC  = "sharded-rpc"
	tenantChurn = "tenant-churn"
)

// workloadDef is one benchmark workload: its name and the reason it is
// in the set (the same sentence BENCHMARK.json and the README carry).
type workloadDef struct {
	Name string
	Why  string
}

var workloadDefs = []workloadDef{
	{steadyFleet, "A mostly converged 60-instance flat fleet: window pricing (workload, sqlparse, simdb) and the per-tick tde detectors do nearly all the work, tuner/director/dfa almost none."},
	{tuningStorm, "48 shaped instances that throttle every window: director, tuner (bo+gp), dfa and repository fan-out do a third of the work and step cost grows with tuner history."},
	{shardedRPC, "The steady-fleet cohort behind min(2,nproc) shard.Remote worker processes: identical window work plus RPC encode/wire/decode, the coordinator barrier and the merge."},
	{tenantChurn, "An 80-instance fleet where every window creates 2 databases, deletes the 2 oldest and resizes 1: reconcile, core Add/Remove/Resize, orchestrator provisioning and checkpoint encode."},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.Name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// referenceSeconds is the -seconds value the full sizes below are
// calibrated for: at that value the measured phase of each workload
// takes roughly that long on the 2-vCPU reference machine.
const referenceSeconds = 15

// minWindows keeps ten step samples beyond p95.
const minWindows = 200

// sizing scales a workload: full sizes reproduce the published numbers,
// quick sizes exist for tests and smoke runs.
type sizing struct {
	Quick   bool
	Seconds int
}

// windows scales a workload's full measured-window count by -seconds.
// Work is fixed by (seed, seconds), never by the clock, so both sides
// of a comparison do the same work.
func (s sizing) windows(full int) int {
	if s.Quick {
		return 20
	}
	sec := s.Seconds
	if sec <= 0 {
		sec = referenceSeconds
	}
	w := (full*sec + referenceSeconds/2) / referenceSeconds
	if w < minWindows {
		w = minWindows
	}
	return w
}

func (s sizing) instances(full int) int {
	if s.Quick {
		return 8
	}
	return full
}

func (s sizing) warmup(full int) int {
	if s.Quick {
		return 2
	}
	return full
}

// dbDecl is one database of the initial cohort.
type dbDecl struct {
	Tenant string             `json:"tenant"`
	Spec   fleet.DatabaseSpec `json:"spec"`
}

// Mutation kinds of the churn schedule.
const (
	opCreate = "create"
	opDelete = "delete"
	opResize = "resize"
)

// mutation is one lifecycle call of the churn schedule.
type mutation struct {
	Op     string             `json:"op"`
	Tenant string             `json:"tenant"`
	DB     string             `json:"db"`
	Spec   fleet.DatabaseSpec `json:"spec,omitempty"` // create
	Plan   string             `json:"plan,omitempty"` // resize target
}

// plan is everything the harness derives from (workload, seed, sizing)
// before the program runs: the program sees only these specs, never the
// seed or the PRNG that drew them.
type plan struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	FleetSeed int64  `json:"fleet_seed"`
	TunerSeed int64  `json:"tuner_seed"`

	WindowMin int `json:"window_min"`
	Warmup    int `json:"warmup"`
	Windows   int `json:"windows"`
	// Workers is the shard worker-process count (0: flat engine).
	Workers int `json:"workers"`

	// Tiers and Blueprints override the built-in catalogue when set.
	Tiers      map[string]tenant.Tier      `json:"tiers,omitempty"`
	Blueprints map[string]tenant.Blueprint `json:"blueprints,omitempty"`

	Tenants   []tenant.Tenant `json:"tenants"`
	Databases []dbDecl        `json:"databases"`

	// Churn[w] are the lifecycle calls made before measured window w.
	Churn [][]mutation `json:"churn,omitempty"`
	// CheckpointAfter lists measured windows (1-based) after which an
	// in-run CheckpointNow is taken.
	CheckpointAfter []int `json:"checkpoint_after,omitempty"`
	// ExpectedInstanceWindows[w] is the cohort size measured window w
	// must step, from the schedule alone.
	ExpectedInstanceWindows []int `json:"expected_instance_windows"`
}

func (p *plan) window() time.Duration { return time.Duration(p.WindowMin) * time.Minute }

// harnessRNG is the harness's own PRNG stream for one cohort: the seed
// mixed with the cohort name, so two workloads never share draws.
func harnessRNG(seed int64, cohort string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s#%d", cohort, seed)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// buildPlan derives a workload's plan. nproc clamps the worker count.
func buildPlan(name string, seed int64, sz sizing, nproc int) (*plan, error) {
	switch name {
	case steadyFleet:
		return steadyPlan(name, seed, sz, 0), nil
	case shardedRPC:
		workers := min(2, nproc)
		if sz.Quick {
			workers = 1
		}
		return steadyPlan(name, seed, sz, workers), nil
	case tuningStorm:
		return stormPlan(seed, sz), nil
	case tenantChurn:
		return churnPlan(seed, sz), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// quota is a fixed number of instances of one blueprint. The seed only
// permutes which slot gets which blueprint: drawing the counts
// themselves would change the work a seed does by tens of percent.
type quota struct {
	blueprint string
	count     int
}

// spread expands quotas to n slots and shuffles them with rng. The
// counts are exact when n is their sum (full sizes) and scaled
// otherwise (quick sizes), the last blueprint taking what is left.
func spread(quotas []quota, n int, rng *rand.Rand) []string {
	total := 0
	for _, q := range quotas {
		total += q.count
	}
	out := make([]string, 0, n)
	for i, q := range quotas {
		c := q.count * n / total
		if i == len(quotas)-1 {
			c = n - len(out)
		}
		for j := 0; j < c; j++ {
			out = append(out, q.blueprint)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// dbID names the i-th database. The constant suffix after the digits
// matters on sharded-rpc: the coordinator's rendezvous hash (FNV-1a)
// barely mixes trailing bytes, so IDs that differ only in their last
// digits pile onto one shard ("db-NNN": 60 of 60; "acct/dbNNN": 50 of
// 60 at two shards). With a suffix the same 60 split 28/32, and the
// workload measures the process seam rather than the placement hash.
func dbID(i int) string { return fmt.Sprintf("db%03d-pg", i) }

func constantCohort(windows, instances int) []int {
	out := make([]int, windows)
	for i := range out {
		out[i] = instances
	}
	return out
}

// steadyQuotas is the converged cohort. mysql-kv, which the issue
// lists, is left out: the director round-robins one tuner pool across
// engines, so a MySQL instance in a PostgreSQL-tuned fleet fails every
// apply, and the benchmark may not contain failing operations. The two
// pg-oltp-large instances never converge (adulterated TPC-C throttles
// about twice a window); they keep throttles_per_kwindow away from zero
// while the tuner's share of a step stays under 5%.
var steadyQuotas = []quota{
	{"pg-oltp-small", 30},
	{"pg-web", 25},
	{"pg-production", 3},
	{"pg-oltp-large", 2},
}

// steadyPlan is the steady-fleet cohort; sharded-rpc reuses it (same
// seed, same specs) behind worker processes.
func steadyPlan(name string, seed int64, sz sizing, workers int) *plan {
	rng := harnessRNG(seed, steadyFleet)
	p := &plan{
		Workload:  name,
		Seed:      seed,
		FleetSeed: rng.Int63(),
		TunerSeed: rng.Int63(),
		WindowMin: 5,
		Warmup:    sz.warmup(10),
		Windows:   sz.windows(200),
		Workers:   workers,
	}
	const tenants = 6
	n := sz.instances(60)
	tiers := tenant.DefaultTiers()
	bps := tenant.DefaultBlueprints()
	for t := 0; t < tenants; t++ {
		tier := "standard"
		if t%2 == 1 {
			tier = "premium"
		}
		p.Tenants = append(p.Tenants, tenant.Tenant{ID: fmt.Sprintf("acct%d", t), Tier: tier})
	}
	for i, bp := range spread(steadyQuotas, n, rng) {
		tn := p.Tenants[i%tenants]
		spec := fleet.DatabaseSpec{ID: dbID(i), Blueprint: bp}
		if !tiers[tn.Tier].AllowsPlan(bps[bp].Plan) {
			// Every default tier allows t2.large.
			spec.Plan = "t2.large"
		}
		p.Databases = append(p.Databases, dbDecl{Tenant: tn.ID, Spec: spec})
	}
	p.ExpectedInstanceWindows = constantCohort(p.Windows, n)
	return p
}

var stormQuotas = []quota{
	{"pg-oltp-large", 20},
	{"pg-analytics", 14},
	{"pg-web", 14},
}

// stormPlan is the tuning-storm cohort: blueprints that keep throttling
// under seed-derived batch, diurnal+spike and drift load shapes.
func stormPlan(seed int64, sz sizing) *plan {
	rng := harnessRNG(seed, tuningStorm)
	p := &plan{
		Workload:  tuningStorm,
		Seed:      seed,
		FleetSeed: rng.Int63(),
		TunerSeed: rng.Int63(),
		WindowMin: 30,
		Warmup:    sz.warmup(4),
		Windows:   sz.windows(200),
	}
	const tenants = 4
	n := sz.instances(48)
	for t := 0; t < tenants; t++ {
		// premium is the only default tier that allows pg-analytics'
		// m4.xlarge.
		p.Tenants = append(p.Tenants, tenant.Tenant{ID: fmt.Sprintf("storm%d", t), Tier: "premium"})
	}
	horizon := (p.Warmup + p.Windows) * p.WindowMin
	for i, bp := range spread(stormQuotas, n, rng) {
		spec := fleet.DatabaseSpec{ID: dbID(i), Blueprint: bp, Shape: stormShape(i, horizon, rng)}
		p.Databases = append(p.Databases, dbDecl{Tenant: p.Tenants[i%tenants].ID, Spec: spec})
	}
	p.ExpectedInstanceWindows = constantCohort(p.Windows, n)
	return p
}

// stormShape cycles the three shape families across slots; the seed
// draws their parameters.
func stormShape(slot, horizonMin int, rng *rand.Rand) *workload.Shape {
	switch slot % 3 {
	case 0:
		every := 240 + 60*rng.Intn(5)
		return &workload.Shape{Terms: []workload.Term{{
			Kind: workload.TermBatch, Factor: 1.5 + rng.Float64(),
			AtMin: 30 * rng.Intn(8), DurMin: 60 + 30*rng.Intn(3), EveryMin: every,
		}}}
	case 1:
		return &workload.Shape{Terms: []workload.Term{
			{Kind: workload.TermDiurnal, Factor: 1.3 + 0.5*rng.Float64(), Trough: 0.4 + 0.3*rng.Float64(), PeakMin: 60 * rng.Intn(24)},
			{Kind: workload.TermSpike, Factor: 2 + rng.Float64(), AtMin: rng.Intn(horizonMin/2 + 1), DurMin: 90 + 30*rng.Intn(4)},
		}}
	default:
		return &workload.Shape{Terms: []workload.Term{{
			Kind: workload.TermDrift, Factor: 1.4 + 0.8*rng.Float64(),
			AtMin: rng.Intn(horizonMin/4 + 1), DurMin: horizonMin / 2,
		}}}
	}
}

// Churn catalogue: one cheap blueprint on a tier with two plans, so a
// resize always has somewhere to go.
const (
	churnTier      = "bench"
	churnBlueprint = "bench"
)

var churnPlans = [2]string{"t2.medium", "t2.large"}

// churnDB is the schedule generator's model of one live database.
type churnDB struct {
	tenant, id string
	plan       int // index into churnPlans
	born       int // measured window it was created before (-1: base)
}

// churnPlan is the tenant-churn workload: an 80-instance base, then
// every measured window creates 2 databases, deletes the 2 oldest and
// resizes 1. The schedule is computed here against a model of the
// desired state, so the run itself needs no decisions.
func churnPlan(seed int64, sz sizing) *plan {
	rng := harnessRNG(seed, tenantChurn)
	const tenants = 8
	const perWindowCreates, perWindowDeletes = 2, 2
	n := sz.instances(80)
	p := &plan{
		Workload:  tenantChurn,
		Seed:      seed,
		FleetSeed: rng.Int63(),
		TunerSeed: rng.Int63(),
		WindowMin: 5,
		Warmup:    sz.warmup(10),
		Windows:   sz.windows(200),
		Tiers: map[string]tenant.Tier{churnTier: {
			Name: churnTier, MaxInstances: 4 * (n/tenants + 1), AllowedPlans: churnPlans[:], WarmupWindows: 1,
		}},
		Blueprints: map[string]tenant.Blueprint{churnBlueprint: {
			Name: churnBlueprint, Engine: "postgres", Plan: churnPlans[0],
			Workload: tenant.WorkloadSpec{Class: "tpcc", SizeGiB: 4, Rate: 1200},
		}},
	}
	p.CheckpointAfter = []int{p.Windows / 2, p.Windows}
	for t := 0; t < tenants; t++ {
		p.Tenants = append(p.Tenants, tenant.Tenant{ID: fmt.Sprintf("churn%d", t), Tier: churnTier})
	}

	var live []churnDB
	perTenant := make(map[string]int)
	next := 0
	newDB := func(born int) churnDB {
		// Least-loaded tenant, ties broken by the seed, keeps every
		// tenant under its quota without a retry loop.
		ids := make([]string, 0, tenants)
		for _, t := range p.Tenants {
			ids = append(ids, t.ID)
		}
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		sort.SliceStable(ids, func(i, j int) bool { return perTenant[ids[i]] < perTenant[ids[j]] })
		db := churnDB{tenant: ids[0], id: dbID(next), plan: rng.Intn(2), born: born}
		next++
		perTenant[db.tenant]++
		live = append(live, db)
		return db
	}
	spec := func(db churnDB) fleet.DatabaseSpec {
		return fleet.DatabaseSpec{ID: db.id, Blueprint: churnBlueprint, Plan: churnPlans[db.plan]}
	}
	for i := 0; i < n; i++ {
		db := newDB(-1)
		p.Databases = append(p.Databases, dbDecl{Tenant: db.tenant, Spec: spec(db)})
	}

	// A database deleted before window w takes its final (draining)
	// window in w and is gone from w+1 on.
	for w := 0; w < p.Windows; w++ {
		var muts []mutation
		for c := 0; c < perWindowCreates; c++ {
			db := newDB(w)
			muts = append(muts, mutation{Op: opCreate, Tenant: db.tenant, DB: db.id, Spec: spec(db)})
		}
		deleted := 0
		for deleted < perWindowDeletes && len(live) > perWindowCreates {
			db := live[0]
			live = live[1:]
			perTenant[db.tenant]--
			muts = append(muts, mutation{Op: opDelete, Tenant: db.tenant, DB: db.id})
			deleted++
		}
		// Resize one database that has been through at least one
		// reconcile tick (not created this window).
		var candidates []int
		for i, db := range live {
			if db.born < w {
				candidates = append(candidates, i)
			}
		}
		if len(candidates) > 0 {
			i := candidates[rng.Intn(len(candidates))]
			live[i].plan = 1 - live[i].plan
			muts = append(muts, mutation{Op: opResize, Tenant: live[i].tenant, DB: live[i].id, Plan: churnPlans[live[i].plan]})
		}
		p.Churn = append(p.Churn, muts)
		// This window steps every live database plus the ones deleted
		// just now (their draining window); last window's deletions are
		// removed by this window's reconcile pass.
		p.ExpectedInstanceWindows = append(p.ExpectedInstanceWindows, len(live)+deleted)
	}
	return p
}
