package orchestrator

import (
	"testing"
	"time"

	"autodbaas/internal/knobs"
	"autodbaas/internal/simdb"
)

// scriptedApplyFailures makes a node's next n ApplyConfig calls fail.
func scriptedApplyFailures(node *simdb.Engine, n *int) {
	node.SetFaultHooks(&simdb.FaultHooks{BeforeApply: func(simdb.ApplyMethod) error {
		if *n > 0 {
			*n--
			return simdb.ErrDown // any error: the seam only needs to fail
		}
		return nil
	}})
}

// TestWatcherTimeoutBoundary pins the reconcile condition at the
// boundary: drift persisting just under the timeout is left alone, at
// exactly the timeout and past it it is repaired.
func TestWatcherTimeoutBoundary(t *testing.T) {
	cases := []struct {
		name   string
		offset time.Duration
		want   bool
	}{
		{"just_under", time.Minute - time.Millisecond, false},
		{"at_timeout", time.Minute, true},
		{"past_timeout", time.Minute + time.Second, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := New()
			o.WatcherTimeout = time.Minute
			inst := provision(t, o, "db-b")
			if err := inst.Replica.Master().ApplyConfig(knobs.Config{"work_mem": 32 * 1024 * 1024}, simdb.ApplyReload); err != nil {
				t.Fatal(err)
			}
			t0 := time.Date(2021, 3, 23, 10, 0, 0, 0, time.UTC)
			if got := o.ReconcileTick(t0); len(got) != 0 {
				t.Fatalf("reconciled on first observation: %v", got)
			}
			got := o.ReconcileTick(t0.Add(c.offset))
			if (len(got) == 1) != c.want {
				t.Fatalf("offset %v: reconciled=%v, want %v", c.offset, got, c.want)
			}
		})
	}
}

// TestRepairRetriesTransientFailures: per-node apply failures within
// one repair are retried up to ReloadRetries times and counted.
func TestRepairRetriesTransientFailures(t *testing.T) {
	cases := []struct {
		name        string
		failures    int
		wantRepair  bool
		wantRetries int
	}{
		{"first_try", 0, true, 0},
		{"one_transient", 1, true, 1},
		{"two_transient", 2, true, 2},
		{"exhausted", 3, false, 2}, // ReloadRetries=3 attempts → 2 retries
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := New()
			o.WatcherTimeout = time.Minute
			inst := provision(t, o, "db-r")
			if err := inst.Replica.Master().ApplyConfig(knobs.Config{"work_mem": 32 * 1024 * 1024}, simdb.ApplyReload); err != nil {
				t.Fatal(err)
			}
			left := c.failures
			scriptedApplyFailures(inst.Replica.Master(), &left)
			t0 := time.Date(2021, 3, 23, 10, 0, 0, 0, time.UTC)
			o.ReconcileTick(t0)
			got := o.ReconcileTick(t0.Add(2 * time.Minute))
			if (len(got) == 1) != c.wantRepair {
				t.Fatalf("repaired=%v, want %v", got, c.wantRepair)
			}
			if o.Retries() != c.wantRetries {
				t.Fatalf("retries = %d, want %d", o.Retries(), c.wantRetries)
			}
		})
	}
}

// TestRepairBacksOffAndEscalatesToRestart: a drift that survives
// EscalateAfter failed repairs is repaired with a full restart, and the
// failed repairs back off exponentially in virtual time.
func TestRepairBacksOffAndEscalatesToRestart(t *testing.T) {
	o := New()
	o.WatcherTimeout = time.Minute
	o.RetryBackoff = time.Minute
	inst := provision(t, o, "db-e")
	master := inst.Replica.Master()
	if err := master.ApplyConfig(knobs.Config{"work_mem": 32 * 1024 * 1024}, simdb.ApplyReload); err != nil {
		t.Fatal(err)
	}
	// Reload applies fail forever; only a restart apply goes through —
	// the poisoned-reload-path scenario escalation exists for.
	master.SetFaultHooks(&simdb.FaultHooks{BeforeApply: func(m simdb.ApplyMethod) error {
		if m == simdb.ApplyReload {
			return simdb.ErrDown
		}
		return nil
	}})
	t0 := time.Date(2021, 3, 23, 10, 0, 0, 0, time.UTC)
	o.ReconcileTick(t0)

	// Repair 1 fails (all retries exhausted) → backoff 1m.
	if got := o.ReconcileTick(t0.Add(2 * time.Minute)); len(got) != 0 {
		t.Fatalf("poisoned reload repaired: %v", got)
	}
	// Inside the backoff window nothing runs (retries stay flat).
	before := o.Retries()
	o.ReconcileTick(t0.Add(2*time.Minute + 30*time.Second))
	if o.Retries() != before {
		t.Fatal("repair ran inside the backoff window")
	}
	// Repair 2 fails → backoff 2m, fails now at EscalateAfter.
	if got := o.ReconcileTick(t0.Add(4 * time.Minute)); len(got) != 0 {
		t.Fatalf("poisoned reload repaired: %v", got)
	}
	if o.Escalations() != 0 {
		t.Fatal("escalated before EscalateAfter failures")
	}
	// Repair 3 escalates to restart and succeeds.
	restartsBefore := master.Restarts()
	got := o.ReconcileTick(t0.Add(10 * time.Minute))
	if len(got) != 1 {
		t.Fatalf("escalated repair did not land: %v", got)
	}
	if o.Escalations() != 1 {
		t.Fatalf("escalations = %d, want 1", o.Escalations())
	}
	if master.Restarts() == restartsBefore {
		t.Fatal("escalation did not restart the node")
	}
	want, _ := o.PersistedConfig("db-e")
	if live := master.Config()["work_mem"]; live != want["work_mem"] {
		t.Fatalf("escalated repair left work_mem = %g", live)
	}
	if o.Retries() == 0 {
		t.Fatal("no retries counted across failed repairs")
	}
}

// TestDownNodeCountsAsDrift: a stuck restart leaves live == persisted
// but the node down; the reconciler must still notice and revive it.
func TestDownNodeCountsAsDrift(t *testing.T) {
	o := New()
	o.WatcherTimeout = time.Minute
	inst := provision(t, o, "db-d")
	master := inst.Replica.Master()
	// Crash the master with a stuck restart: config does not drift.
	stuck := true
	master.SetFaultHooks(&simdb.FaultHooks{BeforeRestart: func() error {
		if stuck {
			return simdb.ErrDown
		}
		return nil
	}})
	if err := master.Restart(); err == nil {
		t.Fatal("scripted stuck restart succeeded")
	}
	if !master.Down() {
		t.Fatal("master not down")
	}
	t0 := time.Date(2021, 3, 23, 10, 0, 0, 0, time.UTC)
	o.ReconcileTick(t0)
	// Restart still stuck on the first repair: retries burn, node stays
	// down, reconciler backs off.
	o.ReconcileTick(t0.Add(2 * time.Minute))
	if !master.Down() {
		t.Fatal("master revived while restarts stuck")
	}
	stuck = false
	got := o.ReconcileTick(t0.Add(5 * time.Minute))
	if len(got) != 1 {
		t.Fatalf("down node not repaired: %v", got)
	}
	if master.Down() {
		t.Fatal("master still down after repair")
	}
	if o.Reconciliations() != 1 {
		t.Fatalf("reconciliations = %d, want 1", o.Reconciliations())
	}
}

// TestRepairBackoffCapsLongFailureStreaks: after a long streak of failed
// repairs the next backoff is still the 16× cap, not an overflowed
// shift that would retry (and escalate) on every tick.
func TestRepairBackoffCapsLongFailureStreaks(t *testing.T) {
	for _, fails := range []int{28, 63} {
		o := New()
		inst := provision(t, o, "db-s")
		master := inst.Replica.Master()
		if err := master.ApplyConfig(knobs.Config{"work_mem": 32 * 1024 * 1024}, simdb.ApplyReload); err != nil {
			t.Fatal(err)
		}
		master.SetFaultHooks(&simdb.FaultHooks{BeforeApply: func(simdb.ApplyMethod) error { return simdb.ErrDown }})
		now := time.Date(2021, 3, 23, 10, 0, 0, 0, time.UTC)
		st := o.CheckpointState()
		st.DriftSince["db-s"] = now.Add(-time.Hour)
		st.RepairFails["db-s"] = fails
		if err := o.RestoreCheckpointState(st); err != nil {
			t.Fatal(err)
		}
		if got := o.ReconcileTick(now); len(got) != 0 {
			t.Fatalf("failing repair reported as repaired: %v", got)
		}
		want := now.Add(16 * o.RetryBackoff)
		if got := o.CheckpointState().RetryAt["db-s"]; !got.Equal(want) {
			t.Fatalf("after %d failed repairs: retry at %v, want %v", fails+1, got, want)
		}
	}
}
