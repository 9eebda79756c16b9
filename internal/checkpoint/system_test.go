package checkpoint

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestForEachErrorDeterminism: forEach runs every job once when none
// fails, and otherwise reports the lowest-numbered failure — the one a
// serial loop would hit first — even when a later job fails sooner in
// time. Every job below that failure has run.
func TestForEachErrorDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 40
	var runs [n]atomic.Int32
	if err := forEach(n, func(i int) error { runs[i].Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	for i := range runs {
		if got := runs[i].Load(); got != 1 {
			t.Fatalf("job %d ran %d times", i, got)
		}
	}

	for attempt := 0; attempt < 20; attempt++ {
		var ran [n]atomic.Bool
		err := forEach(n, func(i int) error {
			ran[i].Store(true)
			switch i {
			case 5:
				time.Sleep(2 * time.Millisecond)
				return fmt.Errorf("job %d", i)
			case 7, 30:
				return fmt.Errorf("job %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "job 5" {
			t.Fatalf("attempt %d: want the error of job 5, got %v", attempt, err)
		}
		for i := 0; i < 5; i++ {
			if !ran[i].Load() {
				t.Fatalf("attempt %d: job %d below the failure never ran", attempt, i)
			}
		}
	}
	if err := forEach(0, func(int) error { return fmt.Errorf("no jobs") }); err != nil {
		t.Fatalf("zero jobs: %v", err)
	}
}
