package simdb

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"autodbaas/internal/knobs"
	"autodbaas/internal/workload"
)

// TestSelectKthMatchesSort: the k-th order statistic from selection
// equals the sorted value, for every k over assorted inputs (ties,
// sorted, reversed, random).
func TestSelectKthMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	inputs := [][]float64{
		{1},
		{2, 1},
		{5, 5, 5, 5},
		{1, 2, 3, 4, 5, 6, 7, 8},
		{8, 7, 6, 5, 4, 3, 2, 1},
	}
	for i := 0; i < 30; i++ {
		n := 1 + rng.Intn(300)
		xs := make([]float64, n)
		for j := range xs {
			xs[j] = math.Floor(rng.Float64() * 50) // plenty of ties
		}
		inputs = append(inputs, xs)
	}
	for ci, in := range inputs {
		sorted := append([]float64(nil), in...)
		sort.Float64s(sorted)
		for k := range in {
			work := append([]float64(nil), in...)
			if got := selectKth(work, k); got != sorted[k] {
				t.Fatalf("case %d k=%d: selectKth = %g, sorted = %g", ci, k, got, sorted[k])
			}
		}
	}
}

// TestRunWindowSteadyStateAllocs gates the zero-alloc window pricing:
// once the sample/latency scratch is warm, a window over a canned query
// set must do (almost) no allocation.
func TestRunWindowSteadyStateAllocs(t *testing.T) {
	gen := newCannedGen(workload.NewTPCC(4*workload.GiB, 500), 64)
	e, err := NewEngine(Options{
		Engine:      knobs.Postgres,
		Resources:   Resources{MemoryBytes: 8 * 1024 * 1024 * 1024, VCPU: 2, DiskIOPS: 3000, DiskSSD: true},
		DBSizeBytes: gen.DBSizeBytes(),
		Seed:        17,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ { // warm scratch buffers, profile map
		if _, err := e.RunWindow(gen, 5*time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := e.RunWindow(gen, 5*time.Minute); err != nil {
			t.Fatal(err)
		}
	})
	// Budget: the occasional checkpoint bookkeeping may allocate; the
	// per-query path (192 samples/window) must not.
	if allocs > 4 {
		t.Fatalf("RunWindow allocates %.1f objects/op in steady state, want <= 4", allocs)
	}
}

// cannedGen serves a fixed set of pre-built queries so allocation
// measurements see only the engine's own work, not SQL generation.
type cannedGen struct {
	inner   workload.Generator
	queries []workload.Query
}

func newCannedGen(inner workload.Generator, n int) *cannedGen {
	rng := rand.New(rand.NewSource(99))
	return &cannedGen{inner: inner, queries: workload.Window(inner, rng, n)}
}

func (c *cannedGen) Name() string                     { return c.inner.Name() + "-canned" }
func (c *cannedGen) DBSizeBytes() float64             { return c.inner.DBSizeBytes() }
func (c *cannedGen) RequestRate(at time.Time) float64 { return c.inner.RequestRate(at) }
func (c *cannedGen) Sample(rng *rand.Rand) workload.Query {
	return c.queries[rng.Intn(len(c.queries))]
}
