package gp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"autodbaas/internal/linalg"
)

func TestSEARDEvalSelfIsVariance(t *testing.T) {
	k := NewSEARD(3, 1.0, 2.5)
	x := []float64{0.1, -4, 7}
	if got := k.Eval(x, x); got != 2.5 {
		t.Fatalf("k(x,x) = %g, want 2.5", got)
	}
}

func TestSEARDSymmetricAndDecaying(t *testing.T) {
	k := NewSEARD(2, 0.5, 1.0)
	a, b := []float64{0, 0}, []float64{1, 1}
	if k.Eval(a, b) != k.Eval(b, a) {
		t.Fatal("kernel not symmetric")
	}
	c := []float64{3, 3}
	if !(k.Eval(a, b) > k.Eval(a, c)) {
		t.Fatal("kernel not decaying with distance")
	}
}

func TestFitRejectsEmptyAndMismatched(t *testing.T) {
	g := NewRegressor(NewSEARD(1, 1, 1), 1e-6)
	if err := g.Fit(nil, nil); !errors.Is(err, ErrNoData) {
		t.Fatalf("empty fit err = %v", err)
	}
	if err := g.Fit([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("mismatched fit accepted")
	}
}

func TestPredictBeforeFit(t *testing.T) {
	g := NewRegressor(NewSEARD(1, 1, 1), 1e-6)
	if _, _, err := g.Predict([]float64{0}); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("err = %v, want ErrNotFitted", err)
	}
}

func TestPredictInterpolatesTrainingPoints(t *testing.T) {
	g := NewRegressor(NewSEARD(1, 1.0, 1.0), 1e-8)
	x := [][]float64{{-2}, {-1}, {0}, {1}, {2}}
	y := []float64{4, 1, 0, 1, 4} // x²
	if err := g.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	for i, xi := range x {
		m, v, err := g.Predict(xi)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(m-y[i]) > 1e-3 {
			t.Fatalf("mean at %v = %g, want %g", xi, m, y[i])
		}
		if v > 1e-3 {
			t.Fatalf("variance at training point = %g, want ~0", v)
		}
	}
}

func TestPredictVarianceGrowsAwayFromData(t *testing.T) {
	g := NewRegressor(NewSEARD(1, 1.0, 1.0), 1e-6)
	x := [][]float64{{0}, {1}}
	if err := g.Fit(x, []float64{0, 1}); err != nil {
		t.Fatal(err)
	}
	_, vNear, _ := g.Predict([]float64{0.5})
	_, vFar, _ := g.Predict([]float64{10})
	if !(vFar > vNear) {
		t.Fatalf("vFar = %g not > vNear = %g", vFar, vNear)
	}
}

func TestPredictRevertsToMeanFarAway(t *testing.T) {
	g := NewRegressor(NewSEARD(1, 1.0, 1.0), 1e-6)
	if err := g.Fit([][]float64{{0}, {1}, {2}}, []float64{3, 5, 7}); err != nil {
		t.Fatal(err)
	}
	m, _, _ := g.Predict([]float64{100})
	if math.Abs(m-5) > 1e-6 { // training mean is 5
		t.Fatalf("far-field mean = %g, want 5", m)
	}
}

func TestFitHandlesDuplicateSamples(t *testing.T) {
	// Near-singular kernel matrix: identical configs observed repeatedly,
	// exactly what production DB tuning traces contain.
	g := NewRegressor(NewSEARD(2, 1.0, 1.0), 1e-10)
	x := [][]float64{{1, 1}, {1, 1}, {1, 1}, {2, 2}}
	y := []float64{1, 1.01, 0.99, 2}
	if err := g.Fit(x, y); err != nil {
		t.Fatalf("duplicate-sample fit: %v", err)
	}
	m, _, err := g.Predict([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-1.0) > 0.1 {
		t.Fatalf("duplicate prediction = %g, want ≈1", m)
	}
}

func TestUCB(t *testing.T) {
	g := NewRegressor(NewSEARD(1, 1.0, 1.0), 1e-6)
	if err := g.Fit([][]float64{{0}, {2}}, []float64{0, 2}); err != nil {
		t.Fatal(err)
	}
	ucb0, err := g.UCB([]float64{1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ucb2, err := g.UCB([]float64{1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !(ucb2 > ucb0) {
		t.Fatalf("UCB beta=2 (%g) not > beta=0 (%g)", ucb2, ucb0)
	}
}

// Property: posterior variance is never negative and never (materially)
// exceeds prior variance + noise.
func TestVarianceBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		dim := 1 + rng.Intn(3)
		x := make([][]float64, n)
		y := make([]float64, n)
		for i := range x {
			row := make([]float64, dim)
			for d := range row {
				row[d] = rng.NormFloat64() * 3
			}
			x[i] = row
			y[i] = rng.NormFloat64()
		}
		g := NewRegressor(NewSEARD(dim, 1.0, 1.0), 1e-4)
		if err := g.Fit(x, y); err != nil {
			return true // near-singular draws may legitimately fail
		}
		q := make([]float64, dim)
		for d := range q {
			q[d] = rng.NormFloat64() * 5
		}
		_, v, err := g.Predict(q)
		if err != nil {
			return false
		}
		prior := 1.0 + 1e-4
		return v >= 0 && v <= prior*1.001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPredictScratchNoAllocs gates the zero-alloc acquisition loop.
func TestPredictScratchNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const n, dim = 50, 8
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		x := make([]float64, dim)
		for d := range x {
			x[d] = rng.Float64()
			ys[i] += math.Sin(3*x[d]) * float64(d+1)
		}
		xs[i] = x
		ys[i] += 0.01 * rng.NormFloat64()
	}
	g := NewRegressor(NewSEARD(dim, 0.35, 1.0), 1e-3)
	if err := g.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	q := make([]float64, dim)
	for d := range q {
		q[d] = rng.Float64()
	}
	g.Predict(q) // warm scratch
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := g.Predict(q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("Predict allocates %.1f objects/op, want 0", allocs)
	}
}

// randomFit draws n training points in dim dimensions.
func randomFit(rng *rand.Rand, n, dim int) ([][]float64, []float64) {
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = make([]float64, dim)
		for d := range x[i] {
			x[i][d] = rng.Float64()
		}
		y[i] = rng.Float64()
	}
	return x, y
}

// TestRefitOnReusedBuffersMatchesFresh: refitting one Regressor at
// shrinking and growing sizes predicts exactly what a fresh one does,
// and a same-size refit does not allocate.
func TestRefitOnReusedBuffersMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const dim = 4
	reused := NewRegressor(NewSEARD(dim, 0.35, 1.0), 1e-3)
	q := []float64{0.2, 0.4, 0.6, 0.8}
	for _, n := range []int{40, 9, 25, 40} {
		x, y := randomFit(rng, n, dim)
		fresh := NewRegressor(NewSEARD(dim, 0.35, 1.0), 1e-3)
		if err := fresh.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		if err := reused.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		wm, wv, _ := fresh.Predict(q)
		gm, gv, _ := reused.Predict(q)
		if math.Float64bits(wm) != math.Float64bits(gm) || math.Float64bits(wv) != math.Float64bits(gv) {
			t.Fatalf("n=%d: reused fit predicts (%g, %g), fresh (%g, %g)", n, gm, gv, wm, wv)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if err := reused.Fit(x, y); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Fatalf("n=%d: refit allocates %.1f objects/op, want 0", n, allocs)
		}
	}
}

// TestFailedFitLeavesModelUnfitted: a Fit that fails after a good one
// has already overwritten the shared factor, so the model must not keep
// predicting from it.
func TestFailedFitLeavesModelUnfitted(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	x, y := randomFit(rng, 12, 2)
	bad := [][]float64{{0, 0}, {math.NaN(), 1}, {1, 1}}
	for _, tc := range []struct {
		name string
		fit  func(g *Regressor) error
	}{
		{"not positive definite", func(g *Regressor) error { return g.Fit(bad, []float64{1, 2, 3}) }},
		{"mismatched", func(g *Regressor) error { return g.Fit(x, y[:3]) }},
		{"empty", func(g *Regressor) error { return g.Fit(nil, nil) }},
	} {
		g := NewRegressor(NewSEARD(2, 0.35, 1.0), 1e-3)
		if err := g.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		if err := tc.fit(g); err == nil {
			t.Fatalf("%s: fit accepted", tc.name)
		}
		if g.Fitted() {
			t.Fatalf("%s: model still fitted after a failed Fit", tc.name)
		}
		if _, _, err := g.Predict([]float64{0.5, 0.5}); !errors.Is(err, ErrNotFitted) {
			t.Fatalf("%s: Predict err = %v, want ErrNotFitted", tc.name, err)
		}
		if _, _, err := g.UCBAbove([]float64{0.5, 0.5}, 1, 0); !errors.Is(err, ErrNotFitted) {
			t.Fatalf("%s: UCBAbove err = %v, want ErrNotFitted", tc.name, err)
		}
	}
}

// TestUCBAboveIsExact: whenever UCBAbove scores, it returns UCB's exact
// bits; whenever it skips, UCB could not have beaten the floor. The
// grid covers beta = 0, a floor of −Inf, a NaN floor and a NaN mean.
func TestUCBAboveIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	const dim = 3
	x, y := randomFit(rng, 30, dim)
	nanY := append([]float64(nil), y...)
	nanY[4] = math.NaN()
	for _, targets := range [][]float64{y, nanY} {
		g := NewRegressor(NewSEARD(dim, 0.35, 1.0), 1e-3)
		if err := g.Fit(x, targets); err != nil {
			t.Fatal(err)
		}
		var scored, skipped int
		for _, beta := range []float64{0, 0.5, 1.2, 3} {
			for c := 0; c < 200; c++ {
				q := make([]float64, dim)
				for d := range q {
					q[d] = rng.Float64() * 1.4
				}
				want, err := g.UCB(q, beta)
				if err != nil {
					t.Fatal(err)
				}
				for _, floor := range []float64{math.Inf(-1), math.NaN(), want, 0.2 + rng.Float64()*0.8} {
					got, ok, err := g.UCBAbove(q, beta, floor)
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						skipped++
						if want > floor {
							t.Fatalf("beta=%g floor=%g: skipped a UCB of %g", beta, floor, want)
						}
						continue
					}
					scored++
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("beta=%g floor=%g: UCBAbove = %v, UCB = %v", beta, floor, got, want)
					}
				}
			}
		}
		if scored == 0 || (skipped == 0 && !math.IsNaN(targets[4])) {
			t.Fatalf("grid scored %d and skipped %d candidates; it must exercise both", scored, skipped)
		}
	}
}

// TestJitterRetryOnReusedBuffers: exact duplicates at negligible noise
// fail the first factorization, so Fit retries with a larger jitter
// over the factor buffer the failed attempt left half-written; the
// result must match a fresh Regressor bit for bit.
func TestJitterRetryOnReusedBuffers(t *testing.T) {
	x := [][]float64{{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}, {0.1, 0.9}, {0.1, 0.9}}
	y := []float64{1, 1.01, 0.99, 2, 2.02}
	const noise = 1e-17
	k := NewSEARD(2, 0.35, 1.0)
	kmat := linalg.NewMatrix(len(x), len(x))
	for i := range x {
		for j := range x {
			kmat.Set(i, j, k.Eval(x[i], x[j]))
		}
	}
	if err := linalg.AddDiag(kmat, noise); err != nil {
		t.Fatal(err)
	}
	if _, err := linalg.Cholesky(kmat); err == nil {
		t.Fatal("the first factorization succeeded; this set does not exercise the jitter retry")
	}
	reused := NewRegressor(k, noise)
	rng := rand.New(rand.NewSource(61))
	bx, by := randomFit(rng, 8, 2)
	if err := reused.Fit(bx, by); err != nil { // leave larger, dirty buffers behind
		t.Fatal(err)
	}
	if err := reused.Fit(x, y); err != nil {
		t.Fatalf("jitter retry failed: %v", err)
	}
	fresh := NewRegressor(k, noise)
	if err := fresh.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for _, q := range [][]float64{{0.5, 0.5}, {0.3, 0.3}, {0.1, 0.9}} {
		wm, wv, _ := fresh.Predict(q)
		gm, gv, _ := reused.Predict(q)
		if math.Float64bits(wm) != math.Float64bits(gm) || math.Float64bits(wv) != math.Float64bits(gv) {
			t.Fatalf("at %v: reused (%g, %g), fresh (%g, %g)", q, gm, gv, wm, wv)
		}
	}
}
