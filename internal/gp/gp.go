// Package gp implements Gaussian-process regression, the surrogate model
// at the heart of the OtterTune-style BO tuner (internal/tuner/bo).
//
// The model uses a squared-exponential kernel with automatic relevance
// determination (one length scale per input dimension), a constant mean
// (the training-target mean) and i.i.d. Gaussian observation noise. The
// posterior is obtained via a Cholesky factorization of the kernel
// matrix, so Fit costs O(n³) in the number of training samples — this
// cubic cost is exactly the "recommendation cost" scalability problem
// the AutoDBaaS paper attributes to BO-style tuners, and the benchmarks
// in the repository root measure it directly. Fit never updates a
// previous fit: each BO tuner owns one Regressor whose buffers every Fit
// overwrites. Training sets repeat configs bit for bit, so Fit records
// for each row the first row with the same bits, and the kernel matrix
// and the posterior's kernel row evaluate each distinct row once and
// copy the value to its repeats; every sum still takes one term per row
// in order, so the results equal evaluating every pair.
//
// UCBAbove is the acquisition search's scorer. It skips the O(n²)
// triangular solve for a candidate whose upper bound at prior variance,
// mean + β·√(k(q,q)+noise), cannot beat the running best; the bound is
// exact under floating-point rounding (see UCBAbove).
package gp

import (
	"errors"
	"fmt"
	"math"

	"autodbaas/internal/linalg"
)

// ErrNotFitted is returned by Predict before a successful Fit.
var ErrNotFitted = errors.New("gp: model not fitted")

// ErrNoData is returned by Fit when given no training samples.
var ErrNoData = errors.New("gp: no training data")

// SEARD is the squared-exponential kernel with per-dimension length
// scales: k(a,b) = σ²·exp(−½·Σ((aᵢ−bᵢ)/ℓᵢ)²).
type SEARD struct {
	Variance     float64   // σ², signal variance
	LengthScales []float64 // ℓᵢ, one per input dimension
}

// NewSEARD returns an SE-ARD kernel with uniform length scale l over dim
// dimensions and signal variance v.
func NewSEARD(dim int, l, v float64) *SEARD {
	ls := make([]float64, dim)
	for i := range ls {
		ls[i] = l
	}
	return &SEARD{Variance: v, LengthScales: ls}
}

// Eval returns k(a, b).
func (k *SEARD) Eval(a, b []float64) float64 {
	if len(a) != len(b) || len(a) != len(k.LengthScales) {
		panic(fmt.Sprintf("gp: SEARD dim mismatch a=%d b=%d ls=%d", len(a), len(b), len(k.LengthScales)))
	}
	var s float64
	for i := range a {
		d := (a[i] - b[i]) / k.LengthScales[i]
		s += d * d
	}
	return k.Variance * math.Exp(-0.5*s)
}

// Regressor is a Gaussian-process regression model.
//
// A Regressor is not safe for concurrent use: Fit overwrites buffers it
// owns and Predict reuses internal scratch, so refits and the
// acquisition search (hundreds of candidate evaluations per
// recommendation) do not allocate once the buffers have grown.
type Regressor struct {
	Kernel *SEARD
	Noise  float64 // observation noise variance added to the diagonal

	x     [][]float64
	first []int // first[i]: the first row of x with x[i]'s bits
	mean  float64
	chol  *linalg.Matrix // &factor while fitted, nil otherwise
	alpha []float64      // K⁻¹(y−mean)

	// Fit buffers: the kernel matrix and its Cholesky factor.
	kmat, factor linalg.Matrix

	// Predict scratch (kernel row and triangular-solve vector).
	kbuf, vbuf []float64
}

// NewRegressor returns a GP with the given kernel and noise variance.
// A non-positive noise is clamped to a small jitter for numerical safety.
func NewRegressor(k *SEARD, noise float64) *Regressor {
	if noise <= 0 {
		noise = 1e-8
	}
	return &Regressor{Kernel: k, Noise: noise}
}

// Fit trains the model on inputs x and targets y. It replaces any
// previous fit; a Fit that fails leaves the model unfitted, because it
// has already overwritten the previous factor. x rows are copied by
// reference; callers must not mutate them until the next Fit.
func (g *Regressor) Fit(x [][]float64, y []float64) error {
	g.x, g.chol = nil, nil
	if len(x) == 0 || len(y) == 0 {
		return ErrNoData
	}
	if len(x) != len(y) {
		return fmt.Errorf("gp: %d inputs but %d targets", len(x), len(y))
	}
	n := len(x)
	mean := linalg.Mean(y)
	first := firstRows(&g.first, x)
	// A repeat's entries copy those of the rows its bits first appeared
	// in, which rows first[i] ≤ i and first[j] ≤ j have already filled.
	kmat := square(&g.kmat, n)
	for i := 0; i < n; i++ {
		fi := first[i]
		for j := i; j < n; j++ {
			var v float64
			if fj := first[j]; fi == i && fj == j {
				v = g.Kernel.Eval(x[i], x[j])
			} else {
				v = kmat.At(fi, fj)
			}
			kmat.Set(i, j, v)
			kmat.Set(j, i, v)
		}
	}
	if err := linalg.AddDiag(kmat, g.Noise); err != nil {
		return err
	}
	chol := square(&g.factor, n)
	if err := linalg.CholeskyInto(chol, kmat); err != nil {
		// Retry with a larger jitter; kernel matrices of near-duplicate
		// samples (common with repeated DB configs) are near-singular.
		if err2 := linalg.AddDiag(kmat, 1e-6*float64(n)); err2 != nil {
			return err2
		}
		if err := linalg.CholeskyInto(chol, kmat); err != nil {
			return err
		}
	}
	alpha := grow(&g.alpha, n)
	for i, yi := range y {
		alpha[i] = yi - mean
	}
	if err := linalg.CholSolveInto(chol, alpha, alpha); err != nil {
		return err
	}
	g.x, g.mean, g.chol = x, mean, chol
	return nil
}

// firstRows sets first[i] to the first row of x with x[i]'s bits (−0
// and +0 differ, a NaN may repeat), or i when no earlier row has them.
func firstRows(buf *[]int, x [][]float64) []int {
	first := grow(buf, len(x))
	for i, r := range x {
		first[i] = i
	earlier:
		for j := range i {
			if first[j] != j || len(x[j]) != len(r) {
				continue
			}
			for d, v := range r {
				if math.Float64bits(v) != math.Float64bits(x[j][d]) {
					continue earlier
				}
			}
			first[i] = j
			break
		}
	}
	return first
}

// square resizes m to n×n, reusing its storage when large enough. The
// contents are unspecified.
func square(m *linalg.Matrix, n int) *linalg.Matrix {
	m.Rows, m.Cols = n, n
	m.Data = grow(&m.Data, n*n)
	return m
}

// grow returns (*buf)[:n], reallocating *buf when its capacity is short.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// Fitted reports whether the model has been trained.
func (g *Regressor) Fitted() bool { return g.chol != nil }

// Predict returns the posterior mean and variance at query point q.
// The kernel row k* and the triangular-solve vector live in scratch
// buffers owned by the Regressor, so the candidate-search loop of the
// BO tuner (600 Predicts per recommendation) performs no per-call
// allocations. Predict is therefore NOT safe for concurrent use.
func (g *Regressor) Predict(q []float64) (mean, variance float64, err error) {
	if !g.Fitted() {
		return 0, 0, ErrNotFitted
	}
	mean = g.posteriorMean(q)
	variance, err = g.posteriorVariance(q)
	if err != nil {
		return 0, 0, err
	}
	return mean, variance, nil
}

// posteriorMean fills the kernel-row scratch with k(xᵢ, q), evaluated
// once per distinct training row, and returns the posterior mean at q.
func (g *Regressor) posteriorMean(q []float64) float64 {
	kstar := grow(&g.kbuf, len(g.x))
	for i, f := range g.first {
		if f != i {
			kstar[i] = kstar[f]
			continue
		}
		kstar[i] = g.Kernel.Eval(g.x[i], q)
	}
	return g.mean + linalg.Dot(kstar, g.alpha)
}

// priorVariance is k(q,q) + noise, the variance before conditioning on
// the training data.
func (g *Regressor) priorVariance(q []float64) float64 {
	return g.Kernel.Eval(q, q) + g.Noise
}

// posteriorVariance returns the posterior variance at q from the kernel
// row posteriorMean left in scratch: the prior variance less the
// explained part ‖L⁻¹k*‖², floored at zero.
func (g *Regressor) posteriorVariance(q []float64) (float64, error) {
	v := grow(&g.vbuf, len(g.x))
	if err := linalg.SolveLowerInto(g.chol, g.kbuf, v); err != nil {
		return 0, err
	}
	variance := g.priorVariance(q) - linalg.Dot(v, v)
	if variance < 0 {
		variance = 0
	}
	return variance, nil
}

// UCB returns the upper-confidence-bound acquisition value mean + beta·σ.
func (g *Regressor) UCB(q []float64, beta float64) (float64, error) {
	m, v, err := g.Predict(q)
	if err != nil {
		return 0, err
	}
	return m + beta*math.Sqrt(v), nil
}

// UCBAbove is UCB for a search that only keeps a score greater than
// floor. It returns ok=false without the O(n²) triangular solve when
// mean + beta·√(k(q,q)+noise) ≤ floor; otherwise it returns UCB's exact
// value. The skip is exact: the posterior variance is fl(a − b) with
// a = k(q,q)+noise and b = ‖L⁻¹k*‖² ≥ 0, so it is at most a, and sqrt,
// multiplication by beta ≥ 0 and adding the mean are all monotone
// under rounding, so UCB ≤ the bound ≤ floor. A NaN anywhere in the
// bound, or a negative beta, makes it score normally.
func (g *Regressor) UCBAbove(q []float64, beta, floor float64) (score float64, ok bool, err error) {
	if !g.Fitted() {
		return 0, false, ErrNotFitted
	}
	m := g.posteriorMean(q)
	if beta >= 0 && m+beta*math.Sqrt(g.priorVariance(q)) <= floor {
		return 0, false, nil
	}
	v, err := g.posteriorVariance(q)
	if err != nil {
		return 0, false, err
	}
	return m + beta*math.Sqrt(v), true, nil
}
