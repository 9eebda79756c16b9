package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"autodbaas/internal/benchgate"
	"autodbaas/internal/gp"
)

// The tuner job measures the GP surrogate's fit and recommendation
// latency as stored history grows, on both posterior paths: the exact
// O(n³)-fit/O(n²)-update path small tuners run, and the sparse
// inducing-point path (O(nm²) fit, O(m²) amortized add) that keeps
// recommendation latency flat once history outgrows the threshold.
// The committed BENCH_tuner.json pins the sparse path's contract —
// recommendation latency must grow ≤ maxSparseRecGrowth while history
// grows two orders of magnitude — and CI replays the sweep in quick
// mode against that committed baseline.

// tunerPoint is one history size's measurement: a cold batch fit, and
// the steady-state recommendation cost (absorb one sample via Add,
// then Predict a candidate — the per-window hot path).
type tunerPoint struct {
	N     int   `json:"n"`
	FitNs int64 `json:"fit_ns"`
	RecNs int64 `json:"rec_ns"`
}

type tunerBench struct {
	Note            string                `json:"note"`
	Quick           bool                  `json:"quick"`
	Dim             int                   `json:"dim"`
	InducingPoints  int                   `json:"inducing_points"`
	SparseThreshold int                   `json:"sparse_threshold"`
	Exact           []tunerPoint          `json:"exact"`
	Sparse          []tunerPoint          `json:"sparse"`
	SparseRecGrowth benchgate.TunerGrowth `json:"sparse_rec_growth"`
}

const (
	tunerDim           = 10
	tunerInducing      = 64
	tunerThreshold     = 512
	maxSparseRecGrowth = 2.0
)

// tunerSizes returns the history sweep. Exact sizes stop where O(n³)
// fits stop being a benchmark and start being a siege; the sparse
// sweep spans two orders of magnitude (quick mode compresses both).
func tunerSizes(quick bool) (exact, sparse []int) {
	if quick {
		return []int{250, 500, 1000}, []int{1000, 4000, 16000}
	}
	return []int{1000, 2000, 4000}, []int{1000, 10000, 100000}
}

// measureTunerPath sweeps one posterior path over the given history
// sizes. Wall-clock timing (not testing.Benchmark): the sparse model
// must not be refit per iteration — a b.N-driven loop would either
// mutate n or spend its whole budget on StopTimer refits.
func measureTunerPath(sizes []int, sparse bool, seed int64) []tunerPoint {
	maxN := sizes[len(sizes)-1]
	const recPairs = 32
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, maxN+recPairs)
	y := make([]float64, maxN+recPairs)
	for i := range x {
		row := make([]float64, tunerDim)
		for d := range row {
			row[d] = rng.Float64()
		}
		x[i] = row
		y[i] = rng.Float64()
	}
	newModel := func() *gp.Regressor {
		m := gp.NewRegressor(gp.NewSEARD(tunerDim, 0.6, 1.0), 1e-4)
		if sparse {
			m.SparseThreshold = tunerThreshold
			m.InducingPoints = tunerInducing
		}
		return m
	}

	out := make([]tunerPoint, 0, len(sizes))
	for _, n := range sizes {
		reps := 1
		if n <= 2000 {
			reps = 3
		}
		var fit time.Duration
		var m *gp.Regressor
		for r := 0; r < reps; r++ {
			m = newModel()
			t0 := time.Now()
			if err := m.Fit(x[:n], y[:n]); err != nil {
				panic(fmt.Sprintf("tuner bench: fit n=%d sparse=%v: %v", n, sparse, err))
			}
			if d := time.Since(t0); r == 0 || d < fit {
				fit = d
			}
		}
		if sparse != m.Sparse() {
			panic(fmt.Sprintf("tuner bench: n=%d took the wrong path (sparse=%v, want %v)", n, m.Sparse(), sparse))
		}
		t0 := time.Now()
		for i := 0; i < recPairs; i++ {
			if err := m.Add(x[n+i], y[n+i]); err != nil {
				panic(fmt.Sprintf("tuner bench: add n=%d sparse=%v: %v", n, sparse, err))
			}
			if _, _, err := m.Predict(x[n+i]); err != nil {
				panic(fmt.Sprintf("tuner bench: predict n=%d sparse=%v: %v", n, sparse, err))
			}
		}
		rec := time.Since(t0) / recPairs
		out = append(out, tunerPoint{N: n, FitNs: fit.Nanoseconds(), RecNs: rec.Nanoseconds()})
	}
	return out
}

// runTuner is the benchrunner job body: sweep both paths, pin the
// sparse growth ratio, and — when CI passes the committed baseline —
// gate the sparse path against both the absolute contract and the
// committed ratio.
func runTuner(quick bool, seed int64, baselinePath string) string {
	exactSizes, sparseSizes := tunerSizes(quick)
	bench := &tunerBench{
		Note:            "GP surrogate latency vs stored history; rec_ns = Add(one sample)+Predict(one candidate); the sparse path's rec_latency_ratio is gated ≤ max_ratio (see DESIGN.md \"Sparse tuner core & warm starts\")",
		Quick:           quick,
		Dim:             tunerDim,
		InducingPoints:  tunerInducing,
		SparseThreshold: tunerThreshold,
	}
	fmt.Printf("  exact path (n=%v)\n", exactSizes)
	bench.Exact = measureTunerPath(exactSizes, false, seed)
	fmt.Printf("  sparse path (n=%v, m=%d)\n", sparseSizes, tunerInducing)
	bench.Sparse = measureTunerPath(sparseSizes, true, seed)

	first, last := bench.Sparse[0], bench.Sparse[len(bench.Sparse)-1]
	bench.SparseRecGrowth = benchgate.TunerGrowth{
		FromN:         first.N,
		ToN:           last.N,
		HistoryGrowth: float64(last.N) / float64(first.N),
		RecRatio:      float64(last.RecNs) / float64(first.RecNs),
		MaxRatio:      maxSparseRecGrowth,
	}
	for _, p := range bench.Sparse {
		fmt.Printf("    n=%-7d fit=%-12v rec=%v\n", p.N, time.Duration(p.FitNs), time.Duration(p.RecNs))
	}

	b, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		panic(err)
	}
	text := string(b) + "\n"

	g := bench.SparseRecGrowth
	var base *benchgate.TunerGrowth
	if baselinePath != "" {
		var b tunerBench
		if err := readJSON(baselinePath, &b); err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: tuner: baseline: %v\n", err)
			os.Exit(1)
		}
		base = &b.SparseRecGrowth
	}
	if violations := benchgate.SparseGrowth(base, g); len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "benchrunner: tuner: %s\n", v)
		}
		os.Exit(1)
	}
	if base != nil {
		fmt.Printf("  sparse gate OK: rec ratio %.2f ≤ %.1f (baseline %.2f in %s)\n", g.RecRatio, g.MaxRatio, base.RecRatio, baselinePath)
	} else {
		fmt.Printf("  sparse gate OK: rec ratio %.2f ≤ %.1f\n", g.RecRatio, g.MaxRatio)
	}
	return text
}
