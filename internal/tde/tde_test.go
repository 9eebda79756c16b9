package tde

import (
	"math"
	"runtime"
	"testing"
	"time"

	"autodbaas/internal/knobs"
	"autodbaas/internal/simdb"
	"autodbaas/internal/workload"
)

func newEngine(t *testing.T, eng knobs.Engine, size float64) *simdb.Engine {
	t.Helper()
	e, err := simdb.NewEngine(simdb.Options{
		Engine:      eng,
		Resources:   simdb.Resources{MemoryBytes: 8 * workload.GiB, VCPU: 2, DiskIOPS: 3000, DiskSSD: true},
		DBSizeBytes: size,
		Seed:        11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func newTDE(t *testing.T, db *simdb.Engine) *TDE {
	t.Helper()
	td, err := New(db, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return td
}

// drive runs n windows of gen and a TDE tick after each, returning all
// events.
func drive(t *testing.T, db *simdb.Engine, td *TDE, gen workload.Generator, n int, win time.Duration) []Event {
	t.Helper()
	var events []Event
	for i := 0; i < n; i++ {
		if _, err := db.RunWindow(gen, win); err != nil {
			t.Fatal(err)
		}
		events = append(events, td.Tick()...)
	}
	return events
}

func countKind(events []Event, k EventKind) int {
	var n int
	for _, e := range events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

func countClass(events []Event, c knobs.Class) int {
	var n int
	for _, e := range events {
		if e.Kind == KindThrottle && e.Class == c {
			n++
		}
	}
	return n
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, DefaultConfig(), nil); err == nil {
		t.Fatal("nil engine accepted")
	}
	db := newEngine(t, knobs.Postgres, workload.GiB)
	if _, err := New(db, Config{}, nil); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestMemoryThrottlesOnSpillingWorkload(t *testing.T) {
	db := newEngine(t, knobs.Postgres, 21*workload.GiB)
	td := newTDE(t, db)
	gen := workload.NewAdulteratedTPCC(21*workload.GiB, 3000, 0.8)
	events := drive(t, db, td, gen, 6, 5*time.Minute)
	if got := countClass(events, knobs.Memory); got == 0 {
		t.Fatal("adulterated TPCC raised no memory throttles")
	}
	counts := td.Throttles()
	if counts[knobs.Memory] == 0 {
		t.Fatal("memory throttle counter not updated")
	}
}

func TestPlainTPCCRaisesNoMemoryThrottles(t *testing.T) {
	// Paper Fig. 2: plain TPCC's 0.5MB work-mem demand cannot throttle
	// any memory knob.
	db := newEngine(t, knobs.Postgres, 21*workload.GiB)
	td := newTDE(t, db)
	gen := workload.NewTPCC(21*workload.GiB, 3000)
	events := drive(t, db, td, gen, 6, 5*time.Minute)
	if got := countClass(events, knobs.Memory); got != 0 {
		t.Fatalf("plain TPCC raised %d memory throttles", got)
	}
}

func TestWriteHeavyRaisesBgWriterThrottles(t *testing.T) {
	db := newEngine(t, knobs.Postgres, 26*workload.GiB)
	td := newTDE(t, db)
	gen := workload.NewTPCC(26*workload.GiB, 3300)
	events := drive(t, db, td, gen, 12, 5*time.Minute)
	if got := countClass(events, knobs.BgWriter); got == 0 {
		t.Fatal("write-heavy TPCC at default checkpointing raised no bgwriter throttles")
	}
}

func TestTunedBgWriterQuiet(t *testing.T) {
	db := newEngine(t, knobs.Postgres, 26*workload.GiB)
	tuned := knobs.Config{
		"max_wal_size":                 32 * workload.GiB,
		"checkpoint_timeout":           3_600_000,
		"checkpoint_completion_target": 0.9,
		"bgwriter_lru_maxpages":        1000,
		"bgwriter_delay":               20,
	}
	if err := db.ApplyConfig(tuned, simdb.ApplyReload); err != nil {
		t.Fatal(err)
	}
	td := newTDE(t, db)
	gen := workload.NewTPCC(26*workload.GiB, 3300)
	events := drive(t, db, td, gen, 12, 5*time.Minute)
	defDB := newEngine(t, knobs.Postgres, 26*workload.GiB)
	defTD := newTDE(t, defDB)
	defEvents := drive(t, defDB, defTD, gen, 12, 5*time.Minute)
	if got, def := countClass(events, knobs.BgWriter), countClass(defEvents, knobs.BgWriter); got >= def {
		t.Fatalf("tuned bgwriter throttles (%d) not below default (%d)", got, def)
	}
}

func TestAsyncPlannerProbesFindProfit(t *testing.T) {
	db := newEngine(t, knobs.Postgres, 24*workload.GiB)
	// Hostile planner estimates: plenty of profit for the MDP to find.
	// work_mem is set generously so spill costs don't mask the
	// planner-knob signal (memory tuning is the other detector's job).
	if err := db.ApplyConfig(knobs.Config{
		"random_page_cost": 10, "seq_page_cost": 4.0, "cpu_tuple_cost": 0.001,
		"work_mem": 64 * 1024 * 1024,
	}, simdb.ApplyReload); err != nil {
		t.Fatal(err)
	}
	td := newTDE(t, db)
	gen := workload.NewTwitter(24*workload.GiB, 8000)
	events := drive(t, db, td, gen, 20, 2*time.Minute)
	if got := countClass(events, knobs.AsyncPlanner); got == 0 {
		t.Fatal("MDP probes found no profit under hostile planner estimates")
	}
}

func TestBufferAdvisoryWhenWorkingSetExceedsPool(t *testing.T) {
	db := newEngine(t, knobs.Postgres, 30*workload.GiB)
	td := newTDE(t, db)
	gen := workload.NewTwitter(30*workload.GiB, 10000)
	events := drive(t, db, td, gen, 10, time.Minute)
	var advisories int
	for _, e := range events {
		if e.Kind == KindBufferAdvisory {
			advisories++
			if e.WorkingSet <= 0 || e.Knob != "shared_buffers" {
				t.Fatalf("bad advisory %+v", e)
			}
		}
	}
	if advisories == 0 {
		t.Fatal("no buffer advisory despite 30GB working data on 128MB pool")
	}
}

func TestEntropyFilterConvertsCapSaturationToPlanUpgrade(t *testing.T) {
	db := newEngine(t, knobs.Postgres, 21*workload.GiB)
	// work_mem high enough that the TDE's budgeted footprint
	// (8 sessions × work_mem + pool + maintenance areas) crosses 85% of
	// the 8GB instance — the "limits reached the caps" condition —
	// while maintenance/temp demands keep spilling against defaults.
	if err := db.ApplyConfig(knobs.Config{"work_mem": 860 * 1024 * 1024}, simdb.ApplyReload); err != nil {
		t.Fatal(err)
	}
	td := newTDE(t, db)
	td.filter.EntropyThreshold = 0.2 // evenly mixed classes easily clear this
	gen := workload.NewAdulteratedTPCC(21*workload.GiB, 3000, 0.9)
	events := drive(t, db, td, gen, 30, 5*time.Minute)
	if countKind(events, KindPlanUpgrade) == 0 {
		t.Fatal("sustained at-cap throttles never converted to a plan-upgrade signal")
	}
	// Upgrades are counted separately from throttles.
	if td.Upgrades() == 0 {
		t.Fatal("upgrade counter not updated")
	}
}

func TestThrottleCountersAndTicks(t *testing.T) {
	db := newEngine(t, knobs.Postgres, 21*workload.GiB)
	td := newTDE(t, db)
	gen := workload.NewAdulteratedTPCC(21*workload.GiB, 3000, 0.8)
	events := drive(t, db, td, gen, 5, 5*time.Minute)
	if td.Ticks() != 5 {
		t.Fatalf("ticks = %d", td.Ticks())
	}
	var throttles int
	for _, e := range events {
		if e.Kind == KindThrottle {
			throttles++
		}
	}
	var sum int
	for _, v := range td.Throttles() {
		sum += v
	}
	if sum != throttles {
		t.Fatalf("counter sum %d != events %d", sum, throttles)
	}
}

func TestMySQLKnobMapping(t *testing.T) {
	db := newEngine(t, knobs.MySQL, 21*workload.GiB)
	td := newTDE(t, db)
	gen := workload.NewAdulteratedTPCC(21*workload.GiB, 3000, 0.8)
	events := drive(t, db, td, gen, 8, 5*time.Minute)
	kcat := db.KnobCatalog()
	for _, e := range events {
		if e.Knob == "" {
			continue
		}
		def := kcat.Def(e.Knob)
		if def == nil {
			t.Fatalf("event names unknown mysql knob %q", e.Knob)
		}
		if e.Kind == KindThrottle && def.Class != e.Class {
			t.Fatalf("event class %v but knob %s is %v", e.Class, e.Knob, def.Class)
		}
	}
	if countClass(events, knobs.Memory) == 0 {
		t.Fatal("mysql adulterated workload raised no memory throttles")
	}
}

func TestEventKindString(t *testing.T) {
	if KindThrottle.String() != "throttle" || KindPlanUpgrade.String() != "plan-upgrade" ||
		KindBufferAdvisory.String() != "buffer-advisory" || EventKind(9).String() != "unknown" {
		t.Fatal("event kind strings wrong")
	}
}

func TestDefaultBaselineValues(t *testing.T) {
	b := DefaultBaseline()
	r, l, ok := b.BgWriterBaseline(nil)
	if !ok || l != 2.0 || r <= 0 {
		t.Fatalf("baseline = %g/%g/%v", r, l, ok)
	}
}

// TestQuietTickAllocsIndependentOfLogBatch: after warm-up, a tick that
// raises nothing allocates the same number of objects at LogBatch 64
// and 512, and about the same bytes: the log is read into a buffer the
// TDE reuses, not copied each tick.
func TestQuietTickAllocsIndependentOfLogBatch(t *testing.T) {
	measure := func(batch int) (allocs, bytes float64) {
		t.Helper()
		db, err := simdb.NewEngine(simdb.Options{
			Engine:      knobs.Postgres,
			Resources:   simdb.Resources{MemoryBytes: 8 * workload.GiB, VCPU: 2, DiskIOPS: 3000, DiskSSD: true},
			DBSizeBytes: 2 * workload.GiB,
			Seed:        11,
			// A pool larger than the data set: no buffer advisory.
			Config: knobs.Config{"shared_buffers": 4 * workload.GiB},
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.LogBatch = batch
		cfg.MDPMinProfitFraction = math.Inf(1) // no probe can pay
		td, err := New(db, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		gen := workload.NewYCSB(2*workload.GiB, 500)
		quiet := func() {
			if ev := td.Tick(); len(ev) != 0 {
				t.Fatalf("LogBatch %d: a tick raised %+v", batch, ev)
			}
		}
		for i := 0; i < 6; i++ {
			if _, err := db.RunWindow(gen, 5*time.Minute); err != nil {
				t.Fatal(err)
			}
			quiet()
		}
		const runs = 50
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			quiet()
		}
		runtime.ReadMemStats(&m1)
		return testing.AllocsPerRun(runs, quiet), float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	}
	smallAllocs, smallBytes := measure(64)
	largeAllocs, largeBytes := measure(simdb.DefaultQueryLogSize)
	if smallAllocs != largeAllocs {
		t.Fatalf("a quiet tick allocates %v objects at LogBatch 64 and %v at %d", smallAllocs, largeAllocs, simdb.DefaultQueryLogSize)
	}
	if largeBytes > smallBytes+512 {
		t.Fatalf("a quiet tick allocates %.0f B at LogBatch 64 and %.0f B at %d", smallBytes, largeBytes, simdb.DefaultQueryLogSize)
	}
}
