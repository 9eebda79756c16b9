package simdb

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"autodbaas/internal/knobs"
	"autodbaas/internal/sqlparse"
	"autodbaas/internal/workload"
)

// Property: HypotheticalRunTemplatesMs is non-negative and monotone in spill
// relief — granting strictly more working memory never increases the
// hypothetical cost of a fixed query batch (the cache-footprint feedback
// is excluded by keeping the overlay memory fixed and varying only the
// grant ratio implicitly via the same knob).
func TestHypotheticalMonotoneInWorkMemProperty(t *testing.T) {
	e := newPG(t, m4XLarge(), 24*workload.GiB)
	gen := workload.NewTPCH(24*workload.GiB, 2)
	rng := rand.New(rand.NewSource(1))
	qs := workload.Window(gen, rng, 16)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := e.KnobCatalog().Def("work_mem")
		// Two grant levels below the cache-feedback regime (≤64MB so the
		// footprint term stays negligible at 8 sessions).
		lim := 64.0 * 1024 * 1024
		a := d.Min + r.Float64()*(lim-d.Min)
		b := a + r.Float64()*(lim-a)
		costA := price(t, e, knobs.Config{"work_mem": a}, qs)
		costB := price(t, e, knobs.Config{"work_mem": b}, qs)
		return costA >= 0 && costB >= 0 && costB <= costA*1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the plan for any sampled query of any generator is
// internally consistent — UsesDisk agrees with the grant comparisons,
// and cost estimates are positive and finite.
func TestPlanConsistencyProperty(t *testing.T) {
	e := newPG(t, m4Large(), 24*workload.GiB)
	gens := []workload.Generator{
		workload.NewTPCC(24*workload.GiB, 3300),
		workload.NewTPCH(24*workload.GiB, 2),
		workload.NewAdulteratedTPCC(24*workload.GiB, 3000, 0.5),
		workload.NewProduction(),
	}
	rng := rand.New(rand.NewSource(2))
	for _, gen := range gens {
		for i := 0; i < 200; i++ {
			q := gen.Sample(rng)
			p := explain(t, e, q)
			wantDisk := p.MemRequired > p.MemGranted ||
				p.MaintRequired > p.MaintGranted ||
				p.TempRequired > p.TempGranted
			if p.UsesDisk != wantDisk {
				t.Fatalf("%s: UsesDisk=%v inconsistent with grants %+v", gen.Name(), p.UsesDisk, p)
			}
			if p.EstimatedCost <= 0 {
				t.Fatalf("%s: non-positive plan cost %g", gen.Name(), p.EstimatedCost)
			}
		}
	}
}

// Property: running windows in two half-length steps yields the same
// counter totals order of magnitude as one full step (the simulator's
// aggregate accounting must not depend pathologically on step size).
func TestWindowSplitStability(t *testing.T) {
	run := func(split bool) float64 {
		e := newPG(t, m4Large(), 26*workload.GiB)
		gen := workload.NewTPCC(26*workload.GiB, 3300)
		total := 10 * time.Minute
		if split {
			for i := 0; i < 20; i++ {
				if _, err := e.RunWindow(gen, total/20); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			for i := 0; i < 2; i++ {
				if _, err := e.RunWindow(gen, total/2); err != nil {
					t.Fatal(err)
				}
			}
		}
		return e.Snapshot()["wal_bytes"]
	}
	coarse, fine := run(false), run(true)
	if fine < coarse*0.5 || fine > coarse*2 {
		t.Fatalf("wal accounting step-size sensitive: %g vs %g", coarse, fine)
	}
}

// Property: the ring log returns exactly the most recent lines in order.
func TestRingLogProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cap := 1 + rng.Intn(32)
		r := newRingLog(cap)
		n := rng.Intn(100)
		lines := make([]LogEntry, n)
		for i := range lines {
			lines[i] = LogEntry{TemplateID: string(rune('a'+i%26)) + string(rune('0'+i%10)), Class: sqlparse.Class(i % sqlparse.NumClasses)}
			r.add(lines[i])
		}
		k := rng.Intn(cap + 10)
		got := visitLast(r, k)
		want := k
		if want > n {
			want = n
		}
		if want > cap {
			want = cap
		}
		if len(got) != want {
			return false
		}
		for i := range got {
			if got[i] != lines[n-len(got)+i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
