package workload

import (
	"math/rand"
	"testing"
	"time"

	"autodbaas/internal/sqlparse"
)

func TestSwitchFlips(t *testing.T) {
	sw := NewSwitch(NewYCSB(18*GiB, 5000), NewTPCC(22*GiB, 3300))
	rng := rand.New(rand.NewSource(1))
	if sw.Name() != "ycsb" || sw.Flipped() {
		t.Fatalf("initial state wrong: %s %v", sw.Name(), sw.Flipped())
	}
	if sw.DBSizeBytes() != 22*GiB {
		t.Fatalf("DBSizeBytes = %g, want max of both", sw.DBSizeBytes())
	}
	// Before: no TPCC insert-into-order_line queries.
	for i := 0; i < 100; i++ {
		if q := sw.Sample(rng); q.Class == sqlparse.ClassDelete {
			t.Fatalf("ycsb emitted %v", q.Class)
		}
	}
	sw.Flip()
	sw.Flip() // idempotent
	if !sw.Flipped() || sw.Name() != "tpcc" {
		t.Fatal("flip did not switch")
	}
	at := time.Date(2021, 3, 23, 12, 0, 0, 0, time.UTC)
	if sw.RequestRate(at) != 3300 {
		t.Fatalf("post-flip rate = %g", sw.RequestRate(at))
	}
}

func TestScheduleSelectsByTime(t *testing.T) {
	t0 := time.Date(2021, 3, 23, 0, 0, 0, 0, time.UTC)
	sched := NewSchedule(
		SchedulePhase{From: t0, Gen: NewYCSB(18*GiB, 5000)},
		SchedulePhase{From: t0.Add(time.Hour), Gen: NewTPCC(22*GiB, 3300)},
	)
	if got := sched.RequestRate(t0.Add(30 * time.Minute)); got != 5000 {
		t.Fatalf("phase-1 rate = %g", got)
	}
	if got := sched.RequestRate(t0.Add(2 * time.Hour)); got != 3300 {
		t.Fatalf("phase-2 rate = %g", got)
	}
	// Before the first From: first generator.
	if got := sched.RequestRate(t0.Add(-time.Hour)); got != 5000 {
		t.Fatalf("pre-schedule rate = %g", got)
	}
	if sched.DBSizeBytes() != 22*GiB {
		t.Fatalf("schedule size = %g", sched.DBSizeBytes())
	}
	rng := rand.New(rand.NewSource(2))
	q := sched.SampleAt(rng, t0.Add(2*time.Hour))
	if q.Text() == "" {
		t.Fatal("empty sample")
	}
	if sched.Name() != "ycsb-schedule" {
		t.Fatalf("name = %s", sched.Name())
	}
}

func TestSchedulePanicsOnMisuse(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty schedule did not panic")
		}
	}()
	NewSchedule()
}

func TestScheduleOutOfOrderPanics(t *testing.T) {
	t0 := time.Date(2021, 3, 23, 0, 0, 0, 0, time.UTC)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order schedule did not panic")
		}
	}()
	NewSchedule(
		SchedulePhase{From: t0.Add(time.Hour), Gen: NewYCSB(GiB, 10)},
		SchedulePhase{From: t0, Gen: NewTPCC(GiB, 10)},
	)
}
