package gp

import (
	"math"
	"math/rand"
	"testing"

	"autodbaas/internal/linalg"
)

// referenceGP is Fit and the posterior evaluated on every pair: the
// kernel matrix and each kernel row take one kernel evaluation per
// entry, with no row sharing another's values.
type referenceGP struct {
	k     *SEARD
	noise float64
	x     [][]float64
	mean  float64
	chol  *linalg.Matrix
	alpha []float64
}

func fitReference(k *SEARD, noise float64, x [][]float64, y []float64) (*referenceGP, error) {
	n := len(x)
	kmat := linalg.NewMatrix(n, n)
	for i := range x {
		for j := i; j < n; j++ {
			v := k.Eval(x[i], x[j])
			kmat.Set(i, j, v)
			kmat.Set(j, i, v)
		}
	}
	if err := linalg.AddDiag(kmat, noise); err != nil {
		return nil, err
	}
	chol, err := linalg.Cholesky(kmat)
	if err != nil {
		if err := linalg.AddDiag(kmat, 1e-6*float64(n)); err != nil {
			return nil, err
		}
		if chol, err = linalg.Cholesky(kmat); err != nil {
			return nil, err
		}
	}
	mean := linalg.Mean(y)
	alpha := make([]float64, n)
	for i, yi := range y {
		alpha[i] = yi - mean
	}
	if err := linalg.CholSolveInto(chol, alpha, alpha); err != nil {
		return nil, err
	}
	return &referenceGP{k: k, noise: noise, x: x, mean: mean, chol: chol, alpha: alpha}, nil
}

// predict returns the posterior mean, the posterior variance and the
// prior variance at q.
func (r *referenceGP) predict(q []float64) (mean, variance, prior float64, err error) {
	kstar := make([]float64, len(r.x))
	for i := range r.x {
		kstar[i] = r.k.Eval(r.x[i], q)
	}
	mean = r.mean + linalg.Dot(kstar, r.alpha)
	v := make([]float64, len(r.x))
	if err := linalg.SolveLowerInto(r.chol, kstar, v); err != nil {
		return 0, 0, 0, err
	}
	prior = r.k.Eval(q, q) + r.noise
	variance = prior - linalg.Dot(v, v)
	if variance < 0 {
		variance = 0
	}
	return mean, variance, prior, nil
}

// sameFloat compares bit patterns, so NaNs of one pattern match.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkMatchesReference fits g and the every-pair reference on (x, y)
// and requires the same outcome to the bit: the same error or none, the
// same factor and weights, and at every query the same Predict, UCB and
// UCBAbove results.
func checkMatchesReference(t testing.TB, g *Regressor, x [][]float64, y []float64, queries [][]float64) {
	t.Helper()
	ref, refErr := fitReference(g.Kernel, g.Noise, x, y)
	err := g.Fit(x, y)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("Fit error %v, reference %v", err, refErr)
	}
	if err != nil {
		return
	}
	for i, v := range ref.chol.Data {
		if !sameFloat(g.chol.Data[i], v) {
			t.Fatalf("factor entry %d = %v, reference %v", i, g.chol.Data[i], v)
		}
	}
	for i, v := range ref.alpha {
		if !sameFloat(g.alpha[i], v) {
			t.Fatalf("weight %d = %v, reference %v", i, g.alpha[i], v)
		}
	}
	for _, q := range queries {
		wm, wv, prior, err := ref.predict(q)
		if err != nil {
			t.Fatal(err)
		}
		gm, gv, err := g.Predict(q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameFloat(gm, wm) || !sameFloat(gv, wv) {
			t.Fatalf("Predict(%v) = (%v, %v), reference (%v, %v)", q, gm, gv, wm, wv)
		}
		for _, beta := range []float64{0, 1.2} {
			want := wm + beta*math.Sqrt(wv)
			if got, err := g.UCB(q, beta); err != nil || !sameFloat(got, want) {
				t.Fatalf("UCB(%v, %g) = %v (%v), reference %v", q, beta, got, err, want)
			}
			for _, floor := range []float64{math.Inf(-1), want, want - 1e-9} {
				got, ok, err := g.UCBAbove(q, beta, floor)
				if err != nil {
					t.Fatal(err)
				}
				wantOK := !(wm+beta*math.Sqrt(prior) <= floor)
				if ok != wantOK || (ok && !sameFloat(got, want)) {
					t.Fatalf("UCBAbove(%v, %g, %v) = (%v, %v), reference (%v, %v)", q, beta, floor, got, ok, want, wantOK)
				}
			}
		}
	}
}

// nextUp is the float64 one ulp above v.
func nextUp(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }

// TestFitDuplicateRowsMatchReference: Fit evaluates the kernel once per
// distinct training row, and the model must still equal the every-pair
// reference bit for bit over exact duplicates (shared and copied
// slices), rows one ulp apart in their first or last coordinate, −0
// against +0, and a training set whose rows are all equal. One refit of
// a reused Regressor runs over every set in turn.
func TestFitDuplicateRowsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const dim = 4
	fresh := func() [][]float64 {
		x, _ := randomFit(rng, 12, dim)
		return x
	}
	copyRow := func(r []float64) []float64 { return append([]float64(nil), r...) }

	exact := fresh()
	exact = append(exact, exact[3], copyRow(exact[3]), copyRow(exact[0]), exact[11], copyRow(exact[3]))

	ulp := fresh()
	var lastBit [][2]int // rows differing in their last coordinate's last bit
	for _, i := range []int{0, 4, 7} {
		last := copyRow(ulp[i])
		last[dim-1] = nextUp(last[dim-1])
		first := copyRow(ulp[i])
		first[0] = nextUp(first[0])
		lastBit = append(lastBit, [2]int{i, len(ulp)})
		ulp = append(ulp, last, first, copyRow(ulp[i]))
	}

	zeros := fresh()
	for _, i := range []int{1, 5} {
		zeros[i][dim-1] = 0
		neg := copyRow(zeros[i])
		neg[dim-1] = math.Copysign(0, -1)
		zeros = append(zeros, neg, copyRow(zeros[i]), copyRow(neg))
	}

	same := make([][]float64, 9)
	row := fresh()[0]
	for i := range same {
		same[i] = copyRow(row)
	}

	// Guard: the one-ulp rows must give some other row a different
	// kernel value, or sharing their values would go unnoticed.
	k := NewSEARD(dim, 0.35, 1.0)
	differs := false
	for _, p := range lastBit {
		for _, m := range ulp {
			differs = differs || k.Eval(ulp[p[0]], m) != k.Eval(ulp[p[1]], m)
		}
	}
	if !differs {
		t.Fatal("no row one ulp from another changes a kernel value; the set proves nothing")
	}

	reused := NewRegressor(k, 1e-3)
	for _, tc := range []struct {
		name  string
		x     [][]float64
		noise float64
	}{
		{"exact duplicates", exact, 1e-3},
		{"one ulp apart", ulp, 1e-3},
		{"signed zeros", zeros, 1e-3},
		{"all rows equal", same, 1e-3},
		{"all rows equal, jitter retry", same, 1e-17},
		{"exact duplicates again", exact, 1e-3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			y := make([]float64, len(tc.x))
			for i := range y {
				y[i] = rng.Float64()
			}
			queries := append([][]float64{}, tc.x...)
			for i := 0; i < 20; i++ {
				q := make([]float64, dim)
				for d := range q {
					q[d] = rng.Float64()
				}
				queries = append(queries, q)
			}
			reused.Noise = tc.noise
			checkMatchesReference(t, reused, tc.x, y, queries)
			checkMatchesReference(t, NewRegressor(k, tc.noise), tc.x, y, queries)
		})
	}
}

// FuzzFitDuplicateRows: training sets drawn from a seed, with rows
// repeated, moved one ulp or given a −0 as the mask's bits say, fit to
// the every-pair reference's model bit for bit.
func FuzzFitDuplicateRows(f *testing.F) {
	f.Add(int64(1), uint8(12), uint64(0xf0f0))
	f.Add(int64(2), uint8(30), uint64(0xffff_ffff))
	f.Add(int64(3), uint8(5), uint64(0))
	f.Fuzz(func(t *testing.T, seed int64, size uint8, mask uint64) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(size)%32
		dim := 1 + int(mask>>60)%4
		x := make([][]float64, n)
		y := make([]float64, n)
		for i := range x {
			y[i] = rng.Float64()
			bit := mask >> (2 * (i % 30)) & 3
			if i == 0 || bit == 0 {
				x[i] = make([]float64, dim)
				for d := range x[i] {
					x[i][d] = rng.Float64()
				}
				continue
			}
			x[i] = append([]float64(nil), x[rng.Intn(i)]...)
			switch d := rng.Intn(dim); bit {
			case 2:
				x[i][d] = nextUp(x[i][d])
			case 3:
				x[i][d] = math.Copysign(0, -1)
			}
		}
		queries := append([][]float64{make([]float64, dim)}, x...)
		checkMatchesReference(t, NewRegressor(NewSEARD(dim, 0.35, 1.0), 1e-3), x, y, queries)
	})
}
