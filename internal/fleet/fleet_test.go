package fleet

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"autodbaas/internal/checkpoint"
	"autodbaas/internal/cluster"
	"autodbaas/internal/core"
	"autodbaas/internal/faults"
	"autodbaas/internal/knobs"
	"autodbaas/internal/shard"
	"autodbaas/internal/tenant"
	"autodbaas/internal/tuner"
	"autodbaas/internal/tuner/bo"
	"autodbaas/internal/workload"
)

const window = 5 * time.Minute

// testCatalogue keeps workloads small so lifecycle tests stay fast.
func testCatalogue() (map[string]tenant.Tier, map[string]tenant.Blueprint) {
	tiers := map[string]tenant.Tier{
		"std": {Name: "std", MaxInstances: 200, AllowedPlans: []string{"t2.medium", "t2.large", "m4.large"}, WarmupWindows: 2},
	}
	bps := map[string]tenant.Blueprint{
		"oltp": {Name: "oltp", Engine: "postgres", Plan: "t2.medium",
			Workload: tenant.WorkloadSpec{Class: "tpcc", SizeGiB: 2, Rate: 1200}},
		"kv": {Name: "kv", Engine: "postgres", Plan: "t2.large",
			Workload: tenant.WorkloadSpec{Class: "ycsb", SizeGiB: 4, Rate: 2000}},
	}
	return tiers, bps
}

// newTestTuner builds the tuner every one-shard test fleet runs.
func newTestTuner(t *testing.T) tuner.Tuner {
	t.Helper()
	tn, err := bo.New(bo.Options{Engine: knobs.Postgres, Candidates: 60, MaxSamplesPerFit: 60, UCBBeta: 0.5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return tn
}

func newTestService(t *testing.T, parallelism int) *Service {
	t.Helper()
	tiers, bps := testCatalogue()
	svc, err := New(Config{
		Seed:        42,
		Parallelism: parallelism,
		Tuners:      []tuner.Tuner{newTestTuner(t)},
		Tiers:       tiers,
		Blueprints:  bps,
	})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// localSystem reaches the deployment of a one-shard fleet's in-process
// shard.
func localSystem(t *testing.T, svc *Service) *core.System {
	t.Helper()
	sh, ok := svc.Coordinator().Shard(LocalShard)
	if !ok {
		t.Fatalf("no shard %q in %v", LocalShard, svc.Coordinator().ShardNames())
	}
	return sh.(*shard.Local).System()
}

func mustStep(t *testing.T, svc *Service) {
	t.Helper()
	if _, err := svc.Step(window); err != nil {
		t.Fatal(err)
	}
}

func dbPhase(t *testing.T, svc *Service, tid, did string) string {
	t.Helper()
	db, ok := svc.GetDatabase(tid, did)
	if !ok {
		return "absent"
	}
	return db.Phase
}

func TestLifecyclePhases(t *testing.T) {
	svc := newTestService(t, 2)
	if err := svc.CreateTenant(tenant.Tenant{ID: "acme", Tier: "std"}); err != nil {
		t.Fatal(err)
	}
	if err := svc.CreateDatabase("acme", DatabaseSpec{ID: "orders", Blueprint: "oltp"}); err != nil {
		t.Fatal(err)
	}
	if got := dbPhase(t, svc, "acme", "orders"); got != "pending" {
		t.Fatalf("pre-reconcile phase = %s", got)
	}

	// Tick 1 provisions and starts the warm-up (2 windows).
	mustStep(t, svc)
	if got := dbPhase(t, svc, "acme", "orders"); got != "warmup" {
		t.Fatalf("after tick 1 phase = %s", got)
	}
	if localSystem(t, svc).FleetSize() != 1 {
		t.Fatalf("fleet size = %d", localSystem(t, svc).FleetSize())
	}
	mustStep(t, svc)
	mustStep(t, svc)
	if got := dbPhase(t, svc, "acme", "orders"); got != "tuned" {
		t.Fatalf("after warm-up phase = %s", got)
	}

	// Resize re-blueprints onto the new plan and re-warms.
	if err := svc.ResizeDatabase("acme", "orders", "m4.large"); err != nil {
		t.Fatal(err)
	}
	mustStep(t, svc)
	db, _ := svc.GetDatabase("acme", "orders")
	if db.Plan != "m4.large" || db.Phase != "warmup" {
		t.Fatalf("post-resize status = %+v", db)
	}
	if sum := svc.Summary(); sum.Resizes != 1 || sum.Provisions != 1 {
		t.Fatalf("summary = %+v", sum)
	}

	// Delete drains one final window before the instance disappears.
	if err := svc.DeleteDatabase("acme", "orders"); err != nil {
		t.Fatal(err)
	}
	mustStep(t, svc)
	if got := dbPhase(t, svc, "acme", "orders"); got != "draining" {
		t.Fatalf("after delete phase = %s", got)
	}
	if localSystem(t, svc).FleetSize() != 1 {
		t.Fatalf("draining db already gone")
	}
	mustStep(t, svc)
	if _, ok := svc.GetDatabase("acme", "orders"); ok {
		t.Fatalf("database survived its drain")
	}
	if localSystem(t, svc).FleetSize() != 0 {
		t.Fatalf("fleet size = %d after deprovision", localSystem(t, svc).FleetSize())
	}
	if sum := svc.Summary(); sum.Deprovisions != 1 {
		t.Fatalf("summary = %+v", sum)
	}

	// Tenant deletion with no databases is immediate.
	if err := svc.DeleteTenant("acme"); err != nil {
		t.Fatal(err)
	}
	if _, ok := svc.GetTenant("acme"); ok {
		t.Fatalf("tenant survived deletion")
	}
}

func TestDesiredStateValidation(t *testing.T) {
	svc := newTestService(t, 1)
	if err := svc.CreateTenant(tenant.Tenant{ID: "Bad ID!", Tier: "std"}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("bad tenant ID: %v", err)
	}
	if err := svc.CreateTenant(tenant.Tenant{ID: "a1", Tier: "gold"}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown tier: %v", err)
	}
	if err := svc.CreateTenant(tenant.Tenant{ID: "a1", Tier: "std"}); err != nil {
		t.Fatal(err)
	}
	if err := svc.CreateTenant(tenant.Tenant{ID: "a1", Tier: "std"}); !errors.Is(err, ErrConflict) {
		t.Fatalf("duplicate tenant: %v", err)
	}
	if err := svc.CreateDatabase("a1", DatabaseSpec{ID: "d", Blueprint: "nope"}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown blueprint: %v", err)
	}
	if err := svc.CreateDatabase("a1", DatabaseSpec{ID: "d", Blueprint: "oltp", Plan: "m4.xlarge"}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("plan outside tier: %v", err)
	}
	if err := svc.CreateDatabase("a1", DatabaseSpec{ID: "d", Blueprint: "oltp"}); err != nil {
		t.Fatal(err)
	}
	if err := svc.CreateDatabase("a1", DatabaseSpec{ID: "d", Blueprint: "kv"}); !errors.Is(err, ErrConflict) {
		t.Fatalf("duplicate database: %v", err)
	}
	if err := svc.ResizeDatabase("a1", "d", "t2.medium"); !errors.Is(err, ErrConflict) {
		t.Fatalf("resize onto current plan: %v", err)
	}
	if err := svc.DeleteDatabase("a1", "d"); err != nil {
		t.Fatal(err)
	}
	if err := svc.DeleteDatabase("a1", "d"); !errors.Is(err, ErrConflict) {
		t.Fatalf("double delete: %v", err)
	}
	if err := svc.ResizeDatabase("a1", "d", "t2.large"); !errors.Is(err, ErrConflict) {
		t.Fatalf("resize while draining: %v", err)
	}
}

// churnEvent is one scripted control-plane mutation, applied before the
// Step of the named window.
type churnEvent struct {
	window int
	apply  func(t *testing.T, svc *Service)
}

// churnSchedule is a fixed onboard/resize/offboard wave over three
// tenants — the scripted lifecycle schedule of the determinism
// contract.
func churnSchedule() []churnEvent {
	ct := func(id string) func(*testing.T, *Service) {
		return func(t *testing.T, svc *Service) {
			if err := svc.CreateTenant(tenant.Tenant{ID: id, Tier: "std"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	cd := func(tid, did, bp string) func(*testing.T, *Service) {
		return func(t *testing.T, svc *Service) {
			if err := svc.CreateDatabase(tid, DatabaseSpec{ID: did, Blueprint: bp}); err != nil {
				t.Fatal(err)
			}
		}
	}
	rs := func(tid, did, plan string) func(*testing.T, *Service) {
		return func(t *testing.T, svc *Service) {
			if err := svc.ResizeDatabase(tid, did, plan); err != nil {
				t.Fatal(err)
			}
		}
	}
	dd := func(tid, did string) func(*testing.T, *Service) {
		return func(t *testing.T, svc *Service) {
			if err := svc.DeleteDatabase(tid, did); err != nil {
				t.Fatal(err)
			}
		}
	}
	return []churnEvent{
		{0, ct("ant")}, {0, cd("ant", "db-a", "oltp")}, {0, cd("ant", "db-b", "kv")},
		{1, ct("bee")}, {1, cd("bee", "db-a", "kv")},
		{3, ct("cat")}, {3, cd("cat", "db-a", "oltp")}, {3, cd("cat", "db-b", "oltp")},
		{5, rs("ant", "db-a", "m4.large")},
		{7, dd("bee", "db-a")},
		{8, cd("bee", "db-b", "oltp")},
		{10, rs("cat", "db-b", "t2.large")},
		{12, dd("ant", "db-b")},
		{14, cd("ant", "db-c", "kv")},
	}
}

// runChurn drives the schedule for totalWindows and fingerprints.
func runChurn(t *testing.T, svc *Service, schedule []churnEvent, totalWindows int) Fingerprint {
	t.Helper()
	for svc.Windows() < totalWindows {
		w := svc.Windows()
		for _, ev := range schedule {
			if ev.window == w {
				ev.apply(t, svc)
			}
		}
		mustStep(t, svc)
	}
	fp, err := svc.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// churnLayout is one fleet layout the churn suites run over.
type churnLayout struct {
	name  string
	build func(t *testing.T, parallelism int, faulted bool) *Service
	// sweep lists the step parallelism of each run of the determinism
	// suite; every run must match the first. killPar is the kill/restore
	// suite's.
	sweep   []int
	killPar int
	// minShards is the least number of shards the schedule must place
	// instances on.
	minShards int
}

// flatLayout is one in-process shard around the caller's tuner, swept
// across parallelism levels. Faulted, the shard also holds the
// caller's injector.
func flatLayout() churnLayout {
	return churnLayout{name: "flat", build: func(t *testing.T, par int, faulted bool) *Service {
		if !faulted {
			return newTestService(t, par)
		}
		l, err := shard.NewLocalWith(shard.Config{Name: LocalShard, Parallelism: par}, faults.New(99, faults.Medium()), newTestTuner(t))
		if err != nil {
			t.Fatal(err)
		}
		tiers, bps := testCatalogue()
		svc, err := New(Config{Seed: 42, Tiers: tiers, Blueprints: bps, ShardHosts: []shard.Shard{l}})
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}, sweep: []int{1, 4, 16}, killPar: 4, minShards: 1}
}

// shardedLayout is the fixed two-shard map, run-over-run.
func shardedLayout() churnLayout {
	return churnLayout{name: "sharded", build: newShardedServiceAt, sweep: []int{2, 2}, killPar: 2, minShards: 2}
}

// forEachFault runs fn as the "clean" and the "faulted" subtest.
func forEachFault(t *testing.T, fn func(t *testing.T, faulted bool)) {
	for _, faulted := range []bool{false, true} {
		name := "clean"
		if faulted {
			name = "faulted"
		}
		t.Run(name, func(t *testing.T) { fn(t, faulted) })
	}
}

// checkChurnDeterminism runs the scripted schedule once per entry of the
// layout's sweep and requires every fingerprint to match the first. The
// layout must place databases on at least minShards shards.
func checkChurnDeterminism(t *testing.T, lay churnLayout, faulted bool) {
	t.Helper()
	const total = 18
	svc := lay.build(t, lay.sweep[0], faulted)
	base := runChurn(t, svc, churnSchedule(), total)
	if base.Provisions < 7 || base.Deprovisions < 2 || base.Resizes < 2 {
		t.Fatalf("degenerate schedule: %+v", base)
	}
	if base.Samples == 0 {
		t.Fatalf("no training samples uploaded: %+v", base)
	}
	if spread := shardSpread(svc); len(spread) < lay.minShards {
		t.Fatalf("placement degenerate: only %d shard(s) hold instances: %v", len(spread), spread)
	}
	for _, par := range lay.sweep[1:] {
		got := runChurn(t, lay.build(t, par, faulted), churnSchedule(), total)
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("%s layout, parallelism %d diverged:\n base %+v\n got %+v", lay.name, par, base, got)
		}
	}
}

// checkKillRestoreMidChurn kills a run of the layout mid-churn
// (databases provisioned, resized and draining on both sides of the
// cut), rebuilds it fresh, restores the latest auto-checkpoint — the
// coordinator's container with one self-contained container per shard —
// replays the remainder of the schedule, and requires the final
// fingerprint to match the uninterrupted run bit-for-bit.
func checkKillRestoreMidChurn(t *testing.T, lay churnLayout, faulted bool) {
	t.Helper()
	const total = 18
	const killAt = 13 // after the window-12 delete, mid-drain
	base := runChurn(t, lay.build(t, lay.killPar, faulted), churnSchedule(), total)

	dir := t.TempDir()
	crash := lay.build(t, lay.killPar, faulted)
	crash.SetAutoCheckpoint(dir, 3)
	runChurn(t, crash, churnSchedule(), killAt)
	// The process dies here; crash is abandoned un-drained.
	checkSnapshotDir(t, dir, "checkpoint-000012.ckpt")

	svc := lay.build(t, lay.killPar, faulted)
	if err := svc.RestoreLatest(dir); err != nil {
		t.Fatal(err)
	}
	if w := svc.Windows(); w == 0 || w > killAt {
		t.Fatalf("restored at window %d", w)
	}
	got := runChurn(t, svc, churnSchedule(), total)
	if !reflect.DeepEqual(base, got) {
		t.Fatalf("restored %s run diverged:\n base %+v\n got %+v", lay.name, base, got)
	}
}

// TestChurnDeterminismAcrossParallelism is the fleet service's core
// guarantee: a fixed (seed, scripted lifecycle schedule) produces
// identical fleet fingerprints at parallelism 1, 4 and 16 on the default
// layout, clean and under medium fault injection.
// TestShardedChurnDeterminism holds the two-shard map to the same.
func TestChurnDeterminismAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("churn determinism sweep")
	}
	forEachFault(t, func(t *testing.T, faulted bool) {
		checkChurnDeterminism(t, flatLayout(), faulted)
	})
}

// TestKillRestoreMidChurn proves the snapshot contract over a dynamic
// cohort on the default layout. TestShardedKillRestoreMidChurn holds the
// two-shard map to the same.
func TestKillRestoreMidChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("churn kill/restore soak")
	}
	forEachFault(t, func(t *testing.T, faulted bool) {
		checkKillRestoreMidChurn(t, flatLayout(), faulted)
	})
}

// checkSnapshotDir asserts the snapshot directory layout: latest.ckpt
// carries the newest snapshot's bytes and no temp file is left behind.
func checkSnapshotDir(t *testing.T, dir, newest string) {
	t.Helper()
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) > 0 {
		t.Errorf("temp files left in the snapshot dir: %v", tmps)
	}
	want, err := os.ReadFile(filepath.Join(dir, newest))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "latest.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("latest.ckpt does not carry %s's bytes", newest)
	}
}

// TestRestoreErrors covers the guard rails of the two-pass restore.
func TestRestoreErrors(t *testing.T) {
	svc := newTestService(t, 1)
	if err := svc.RestoreLatest(t.TempDir()); err == nil {
		t.Fatal("restore from an empty dir succeeded")
	}

	// A snapshot written by a bare core.System has no control section.
	bare, err := core.NewSystem(newTestTuner(t))
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewTPCC(2*cluster.GiB, 1200)
	if _, err := bare.AddInstance(core.InstanceSpec{
		Provision: cluster.ProvisionSpec{ID: "x/y", Plan: "t2.medium", Engine: knobs.Postgres, DBSizeBytes: gen.DBSizeBytes(), Seed: 1},
		Workload:  gen,
	}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := checkpoint.SaveFile(dir, 0, bare.Checkpoint); err != nil {
		t.Fatal(err)
	}
	err = newTestService(t, 1).RestoreLatest(dir)
	if err == nil || !errors.Is(err, checkpoint.ErrManifest) {
		t.Fatalf("bare-system snapshot: %v", err)
	}

	// Restore into a dirty service is refused.
	busy := newTestService(t, 1)
	if err := busy.CreateTenant(tenant.Tenant{ID: "x", Tier: "std"}); err != nil {
		t.Fatal(err)
	}
	good := newTestService(t, 1)
	if err := good.CreateTenant(tenant.Tenant{ID: "x", Tier: "std"}); err != nil {
		t.Fatal(err)
	}
	if err := good.CreateDatabase("x", DatabaseSpec{ID: "y", Blueprint: "oltp"}); err != nil {
		t.Fatal(err)
	}
	mustStep(t, good)
	if _, err := good.CheckpointNow(dir); err != nil {
		t.Fatal(err)
	}
	if err := busy.RestoreLatest(dir); err == nil {
		t.Fatal("restore into a service with declared tenants succeeded")
	}
}
