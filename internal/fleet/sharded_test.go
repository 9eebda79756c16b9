package fleet

import (
	"errors"
	"reflect"
	"testing"

	"autodbaas/internal/shard"
	"autodbaas/internal/tenant"
)

// shardConfigs is the fixed two-shard map of the sharded fleet suite.
// The map (names, order, seeds) is part of the determinism contract.
func shardConfigs(faulted bool) []shard.Config {
	cfgs := []shard.Config{
		{Name: "s0", Seed: 1000, Parallelism: 2},
		{Name: "s1", Seed: 2000, Parallelism: 2},
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
	t.Helper()
	tiers, bps := testCatalogue()
	svc, err := New(Config{
		Seed:       42,
		Tiers:      tiers,
		Blueprints: bps,
		Shards:     shardConfigs(faulted),
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
// contract: the scripted lifecycle schedule on a two-shard engine is
// deterministic run-over-run, places databases across both shards by
// rendezvous hash, and produces a live fingerprint through exactly the
// same digest path as the flat engine.
func TestShardedChurnDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded churn sweep")
	}
	const total = 18
	for _, faulted := range []bool{false, true} {
		name := "clean"
		if faulted {
			name = "faulted"
		}
		t.Run(name, func(t *testing.T) {
			svc := newShardedService(t, faulted)
			base := runChurn(t, svc, churnSchedule(), total)
			if base.Provisions < 7 || base.Deprovisions < 2 || base.Resizes < 2 {
				t.Fatalf("degenerate schedule: %+v", base)
			}
			if base.Samples == 0 {
				t.Fatalf("no training samples uploaded: %+v", base)
			}
			spread := shardSpread(svc)
			if len(spread) < 2 {
				t.Fatalf("placement degenerate: only %d shard(s) hold instances: %v", len(spread), spread)
			}
			got := runChurn(t, newShardedService(t, faulted), churnSchedule(), total)
			if !reflect.DeepEqual(base, got) {
				t.Fatalf("second sharded run diverged:\n base %+v\n got %+v", base, got)
			}
		})
	}
}

// TestShardedKillRestoreMidChurn is the snapshot contract on the
// sharded engine: the coordinator's nested fleet snapshot (control
// section + one self-contained container per shard) restores into a
// freshly built service and replays to a bit-for-bit identical
// fingerprint.
func TestShardedKillRestoreMidChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded kill/restore soak")
	}
	const total = 18
	const killAt = 13
	for _, faulted := range []bool{false, true} {
		name := "clean"
		if faulted {
			name = "faulted"
		}
		t.Run(name, func(t *testing.T) {
			base := runChurn(t, newShardedService(t, faulted), churnSchedule(), total)

			dir := t.TempDir()
			crash := newShardedService(t, faulted)
			crash.SetAutoCheckpoint(dir, 3)
			runChurn(t, crash, churnSchedule(), killAt)
			// The process dies here; crash is abandoned un-drained.
			checkSnapshotDir(t, dir, "checkpoint-000012.ckpt")

			svc := newShardedService(t, faulted)
			if err := svc.RestoreLatest(dir); err != nil {
				t.Fatal(err)
			}
			if w := svc.Windows(); w == 0 || w > killAt {
				t.Fatalf("restored at window %d", w)
			}
			got := runChurn(t, svc, churnSchedule(), total)
			if !reflect.DeepEqual(base, got) {
				t.Fatalf("restored sharded run diverged:\n base %+v\n got %+v", base, got)
			}
		})
	}
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

	// A flat fleet has nowhere to rebalance to.
	flat := newTestService(t, 1, nil)
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
