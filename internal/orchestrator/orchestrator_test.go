package orchestrator

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"autodbaas/internal/cluster"
	"autodbaas/internal/knobs"
	"autodbaas/internal/simdb"
)

func provision(t *testing.T, o *Orchestrator, id string) *cluster.Instance {
	t.Helper()
	inst, err := o.Provision(cluster.ProvisionSpec{
		ID: id, Plan: "m4.large", Engine: knobs.Postgres,
		DBSizeBytes: 10 * cluster.GiB, Slaves: 1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestProvisionGeneratesCredentialsAndPersists(t *testing.T) {
	o := New()
	inst := provision(t, o, "db-1")
	if err := o.Known("db-1"); err != nil {
		t.Fatal(err)
	}
	cfg, err := o.PersistedConfig("db-1")
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Equal(inst.Replica.Master().Config()) {
		t.Fatal("initial persisted config differs from live config")
	}
	if err := o.Known("nope"); !errors.Is(err, ErrUnknownInstance) {
		t.Fatalf("err = %v", err)
	}
}

func TestPersistConfigUnknownInstance(t *testing.T) {
	o := New()
	if err := o.PersistConfig("ghost", knobs.Config{}); !errors.Is(err, ErrUnknownInstance) {
		t.Fatalf("err = %v", err)
	}
	if _, err := o.PersistedConfig("ghost"); !errors.Is(err, ErrUnknownInstance) {
		t.Fatalf("err = %v", err)
	}
}

func TestRedeployRestoresPersistedConfig(t *testing.T) {
	o := New()
	inst := provision(t, o, "db-2")
	tuned := inst.Replica.Master().Config()
	tuned["work_mem"] = 64 * 1024 * 1024
	if err := o.PersistConfig("db-2", tuned); err != nil {
		t.Fatal(err)
	}
	// Drift the live config away.
	if err := inst.Replica.Master().ApplyConfig(knobs.Config{"work_mem": 8 * 1024 * 1024}, simdb.ApplyReload); err != nil {
		t.Fatal(err)
	}
	if err := o.Redeploy("db-2"); err != nil {
		t.Fatal(err)
	}
	for i, node := range inst.Replica.Nodes() {
		if got := node.Config()["work_mem"]; got != 64*1024*1024 {
			t.Fatalf("node %d work_mem = %g after redeploy", i, got)
		}
	}
	if err := o.Redeploy("ghost"); !errors.Is(err, ErrUnknownInstance) {
		t.Fatalf("err = %v", err)
	}
}

func TestReconcilerFixesDriftAfterTimeout(t *testing.T) {
	o := New()
	o.WatcherTimeout = time.Minute
	inst := provision(t, o, "db-3")
	want := inst.Replica.Master().Config()

	// Introduce drift directly on the master (a half-applied change).
	if err := inst.Replica.Master().ApplyConfig(knobs.Config{"work_mem": 32 * 1024 * 1024}, simdb.ApplyReload); err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2021, 3, 23, 10, 0, 0, 0, time.UTC)
	if got := o.ReconcileTick(t0); len(got) != 0 {
		t.Fatal("reconciled before the watcher timeout")
	}
	if got := o.ReconcileTick(t0.Add(30 * time.Second)); len(got) != 0 {
		t.Fatal("reconciled before the watcher timeout elapsed")
	}
	got := o.ReconcileTick(t0.Add(2 * time.Minute))
	if len(got) != 1 || got[0] != "db-3" {
		t.Fatalf("reconciled = %v", got)
	}
	if live := inst.Replica.Master().Config()["work_mem"]; live != want["work_mem"] {
		t.Fatalf("drift not reverted: work_mem = %g", live)
	}
	if o.Reconciliations() != 1 {
		t.Fatalf("reconciliations = %d", o.Reconciliations())
	}
}

func TestReconcilerIgnoresMatchingConfigAndRestartKnobs(t *testing.T) {
	o := New()
	o.WatcherTimeout = time.Minute
	inst := provision(t, o, "db-4")
	// Stage a restart-knob change: live config unchanged until restart,
	// and the reconciler must not treat pending restart values as drift.
	if err := inst.Replica.Master().ApplyConfig(knobs.Config{"shared_buffers": 1 << 30}, simdb.ApplyReload); err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2021, 3, 23, 10, 0, 0, 0, time.UTC)
	o.ReconcileTick(t0)
	if got := o.ReconcileTick(t0.Add(5 * time.Minute)); len(got) != 0 {
		t.Fatalf("restart staging treated as drift: %v", got)
	}
}

func TestDriftClearedIfConfigConverges(t *testing.T) {
	o := New()
	o.WatcherTimeout = time.Minute
	inst := provision(t, o, "db-5")
	orig := inst.Replica.Master().Config()["work_mem"]
	if err := inst.Replica.Master().ApplyConfig(knobs.Config{"work_mem": 32 * 1024 * 1024}, simdb.ApplyReload); err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2021, 3, 23, 10, 0, 0, 0, time.UTC)
	o.ReconcileTick(t0)
	// The drift resolves on its own (e.g. the change was rolled back).
	if err := inst.Replica.Master().ApplyConfig(knobs.Config{"work_mem": orig}, simdb.ApplyReload); err != nil {
		t.Fatal(err)
	}
	o.ReconcileTick(t0.Add(30 * time.Second))
	if got := o.ReconcileTick(t0.Add(5 * time.Minute)); len(got) != 0 {
		t.Fatalf("converged config reconciled anyway: %v", got)
	}
	if o.Reconciliations() != 0 {
		t.Fatal("reconciliation counted despite convergence")
	}
}

// TestReconcileTickInSyncAllocsFlat: a tick over instances whose live
// configs match their persisted ones copies no config, so it allocates
// the same over 64 instances as over 4.
func TestReconcileTickInSyncAllocsFlat(t *testing.T) {
	now := time.Date(2021, 3, 23, 10, 0, 0, 0, time.UTC)
	allocs := func(n int) float64 {
		o := New()
		for i := 0; i < n; i++ {
			provision(t, o, fmt.Sprintf("db-%02d", i))
		}
		if got := o.ReconcileTick(now); len(got) != 0 {
			t.Fatalf("in-sync instances reconciled: %v", got)
		}
		return testing.AllocsPerRun(20, func() { o.ReconcileTick(now) })
	}
	if small, large := allocs(4), allocs(64); small != large {
		t.Fatalf("an in-sync tick allocates %v objects over 4 instances and %v over 64", small, large)
	}
}
