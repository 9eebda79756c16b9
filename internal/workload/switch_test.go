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
