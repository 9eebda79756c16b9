package fleet

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"testing"

	"autodbaas/internal/safety"
	"autodbaas/internal/shard"
	"autodbaas/internal/tenant"
)

// shardConfigs is the fixed two-shard map of the sharded fleet suite.
// The map (names, order, seeds) is part of the determinism contract.
func shardConfigs(parallelism int, faulted bool) []shard.Config {
	cfgs := []shard.Config{
		{Name: "s0", Seed: 1000, Parallelism: parallelism},
		{Name: "s1", Seed: 2000, Parallelism: parallelism},
	}
	if faulted {
		for i := range cfgs {
			cfgs[i].FaultProfile = "medium"
			cfgs[i].FaultSeed = 99 + int64(i)
		}
	}
	return cfgs
}

func newShardedService(t *testing.T, faulted bool) *Service {
	return newShardedServiceAt(t, 2, faulted)
}

func newShardedServiceAt(t *testing.T, parallelism int, faulted bool) *Service {
	t.Helper()
	tiers, bps := testCatalogue()
	svc, err := New(Config{
		Seed:       42,
		Tiers:      tiers,
		Blueprints: bps,
		Shards:     shardConfigs(parallelism, faulted),
	})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// shardSpread counts live instances per shard via the status API.
func shardSpread(svc *Service) map[string]int {
	spread := make(map[string]int)
	for _, ts := range svc.ListTenants() {
		for _, db := range ts.Databases {
			if db.Shard != "" {
				spread[db.Shard]++
			}
		}
	}
	return spread
}

// TestShardedChurnDeterminism is the fleet-scope half of the sharding
// contract: the scripted lifecycle schedule on the two-shard map is
// deterministic run-over-run, clean and faulted, and places databases
// across both shards by rendezvous hash.
func TestShardedChurnDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded churn sweep")
	}
	forEachFault(t, func(t *testing.T, faulted bool) {
		checkChurnDeterminism(t, shardedLayout(), faulted)
	})
}

// TestShardedKillRestoreMidChurn is the snapshot contract on the
// two-shard map: the coordinator's nested fleet snapshot restores into a
// freshly built service and replays to a bit-for-bit identical
// fingerprint.
func TestShardedKillRestoreMidChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded kill/restore soak")
	}
	forEachFault(t, func(t *testing.T, faulted bool) {
		checkKillRestoreMidChurn(t, shardedLayout(), faulted)
	})
}

// TestServiceRebalance drives a rebalance through the control plane:
// the database's live state moves between shards with its config and
// monitor series intact, desired state untouched, and the guard rails
// reject bad requests with the service's typed errors.
func TestServiceRebalance(t *testing.T) {
	svc := newShardedService(t, false)
	if err := svc.CreateTenant(tenant.Tenant{ID: "acme", Tier: "std"}); err != nil {
		t.Fatal(err)
	}
	if err := svc.CreateDatabase("acme", DatabaseSpec{ID: "orders", Blueprint: "oltp"}); err != nil {
		t.Fatal(err)
	}

	// Not provisioned yet: the instance does not exist on any shard.
	if err := svc.Rebalance("acme", "orders", "s1"); !errors.Is(err, ErrConflict) {
		t.Fatalf("rebalance of a pending database: %v", err)
	}
	for i := 0; i < 4; i++ {
		mustStep(t, svc)
	}

	before, err := svc.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	db, _ := svc.GetDatabase("acme", "orders")
	from := db.Shard
	if from == "" {
		t.Fatalf("status reports no hosting shard: %+v", db)
	}
	to := "s0"
	if from == "s0" {
		to = "s1"
	}

	if err := svc.Rebalance("acme", "orders", to); err != nil {
		t.Fatal(err)
	}
	db, _ = svc.GetDatabase("acme", "orders")
	if db.Shard != to {
		t.Fatalf("after rebalance, status shard = %q, want %q", db.Shard, to)
	}
	after, err := svc.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	var mb, ma *MemberPrint
	for i := range before.Members {
		if before.Members[i].ID == "acme/orders" {
			mb = &before.Members[i]
		}
	}
	for i := range after.Members {
		if after.Members[i].ID == "acme/orders" {
			ma = &after.Members[i]
		}
	}
	if mb == nil || ma == nil {
		t.Fatalf("member missing from fingerprint: before=%v after=%v", mb, ma)
	}
	if !reflect.DeepEqual(mb.Config, ma.Config) || mb.MonitorPoints != ma.MonitorPoints || mb.Plan != ma.Plan {
		t.Fatalf("live state changed in flight:\n before %+v\n after  %+v", *mb, *ma)
	}
	mustStep(t, svc)

	// Guard rails.
	if err := svc.Rebalance("ghost", "orders", "s0"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown tenant: %v", err)
	}
	if err := svc.Rebalance("acme", "ghost", "s0"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown database: %v", err)
	}
	if err := svc.DeleteDatabase("acme", "orders"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Rebalance("acme", "orders", to); !errors.Is(err, ErrConflict) {
		t.Fatalf("rebalance of a draining database: %v", err)
	}

	// The default layout has one shard: nowhere to rebalance to.
	flat := newTestService(t, 1)
	if err := flat.CreateTenant(tenant.Tenant{ID: "acme", Tier: "std"}); err != nil {
		t.Fatal(err)
	}
	if err := flat.CreateDatabase("acme", DatabaseSpec{ID: "orders", Blueprint: "oltp"}); err != nil {
		t.Fatal(err)
	}
	mustStep(t, flat)
	if err := flat.Rebalance("acme", "orders", "s0"); !errors.Is(err, ErrInvalid) {
		t.Fatalf("rebalance on a flat fleet: %v", err)
	}
}

// newOneShardService builds the default layout's twin spelled out as a
// shard config: the shard defaults build the same tuner newTestService
// passes in.
func newOneShardService(t *testing.T, parallelism int) *Service {
	t.Helper()
	tiers, bps := testCatalogue()
	svc, err := New(Config{
		Seed:       42,
		Tiers:      tiers,
		Blueprints: bps,
		Shards:     []shard.Config{{Name: LocalShard, Parallelism: parallelism, Tuner: shard.TunerConfig{Seed: 7}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestFlatLayoutEquivalence pins what the default layout is: one
// in-process shard. After the churn schedule a service built without
// Shards and one built from the equivalent shard config have identical
// fingerprints, and a snapshot written by either restores into the
// other and replays to the same end state.
func TestFlatLayoutEquivalence(t *testing.T) {
	const total, cut = 18, 9
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("P=%d", par), func(t *testing.T) {
			build := map[string]func() *Service{
				"flat":      func() *Service { return newTestService(t, par) },
				"one-shard": func() *Service { return newOneShardService(t, par) },
			}
			want := runChurn(t, build["flat"](), churnSchedule(), total)
			if got := runChurn(t, build["one-shard"](), churnSchedule(), total); !reflect.DeepEqual(want, got) {
				t.Fatalf("layouts diverged:\n flat      %+v\n one-shard %+v", want, got)
			}
			for _, pair := range [][2]string{{"flat", "one-shard"}, {"one-shard", "flat"}} {
				dir := t.TempDir()
				src := build[pair[0]]()
				runChurn(t, src, churnSchedule(), cut)
				if _, err := src.CheckpointNow(dir); err != nil {
					t.Fatal(err)
				}
				dst := build[pair[1]]()
				if err := dst.RestoreLatest(dir); err != nil {
					t.Fatalf("%s snapshot into %s: %v", pair[0], pair[1], err)
				}
				if got := runChurn(t, dst, churnSchedule(), total); !reflect.DeepEqual(want, got) {
					t.Fatalf("%s snapshot replayed on %s diverged:\n want %+v\n got  %+v", pair[0], pair[1], want, got)
				}
			}
		})
	}
}

// TestCheckpointAllocationsMatchBareSystem guards the cost of nesting:
// the fleet snapshot nests its shard's container as staged, so
// CheckpointNow allocates at most 1.25x what core.System.Checkpoint
// allocates for the same cohort. Copying the shard's container into a
// buffer, and that into the outer container, costs about 2.4x.
func TestCheckpointAllocationsMatchBareSystem(t *testing.T) {
	svc := newTestService(t, 2)
	runChurn(t, svc, churnSchedule(), 12)
	// The least of several samples: a sync.Pool emptied by a collection
	// adds a one-off allocation to whichever sample follows it.
	allocated := func(fn func() error) uint64 {
		var least uint64
		for i := 0; i < 5; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := fn(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if n := after.TotalAlloc - before.TotalAlloc; i == 0 || n < least {
				least = n
			}
		}
		return least
	}
	dir := t.TempDir()
	fleetBytes := allocated(func() error { _, err := svc.CheckpointNow(dir); return err })
	bareBytes := allocated(func() error { return localSystem(t, svc).Checkpoint(io.Discard) })
	if ratio := float64(fleetBytes) / float64(bareBytes); ratio > 1.25 {
		t.Fatalf("CheckpointNow allocated %d bytes, %.2fx the bare system's %d", fleetBytes, ratio, bareBytes)
	}
}

// TestSafetyStatusOnInProcessShards: with the safe-tuning gate armed,
// every database row carries the gate's snapshot on the default layout
// and on a two-shard map, read from the director of the shard hosting
// the database.
func TestSafetyStatusOnInProcessShards(t *testing.T) {
	opts := safety.DefaultOptions()
	tiers, bps := testCatalogue()
	gated := shardConfigs(1, false)
	for i := range gated {
		gated[i].Safety = &opts
	}
	for _, tc := range []struct {
		name   string
		cfg    Config
		shards int
	}{
		{"flat", Config{Shards: []shard.Config{{Name: LocalShard, Tuner: shard.TunerConfig{Seed: 7}, Safety: &opts}}}, 1},
		{"sharded", Config{Shards: gated}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Seed, cfg.Tiers, cfg.Blueprints = 42, tiers, bps
			svc, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := svc.CreateTenant(tenant.Tenant{ID: "acme", Tier: "std"}); err != nil {
				t.Fatal(err)
			}
			for _, id := range []string{"orders", "users", "billing", "search", "audit", "events"} {
				if err := svc.CreateDatabase("acme", DatabaseSpec{ID: id, Blueprint: "oltp"}); err != nil {
					t.Fatal(err)
				}
			}
			mustStep(t, svc)
			mustStep(t, svc)
			ts, _ := svc.GetTenant("acme")
			for _, db := range ts.Databases {
				if db.Safety == nil {
					t.Errorf("%s on shard %q has no safety status", db.ID, db.Shard)
				}
			}
			if spread := shardSpread(svc); len(spread) != tc.shards {
				t.Fatalf("databases on %d shard(s), want %d: %v", len(spread), tc.shards, spread)
			}
		})
	}
}
