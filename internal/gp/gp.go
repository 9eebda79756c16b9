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
// in the repository root measure it directly. The BO tuner fits one
// model from scratch per recommendation and keeps none between calls.
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

// Kernel is a positive-definite covariance function over feature vectors.
type Kernel interface {
	// Eval returns k(a, b).
	Eval(a, b []float64) float64
}

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

// Eval implements Kernel.
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
// A Regressor is not safe for concurrent use: Predict reuses internal
// scratch buffers so the acquisition search (hundreds of candidate
// evaluations per recommendation) does not allocate per call.
type Regressor struct {
	Kernel Kernel
	Noise  float64 // observation noise variance added to the diagonal

	x     [][]float64
	mean  float64
	chol  *linalg.Matrix
	alpha []float64 // K⁻¹(y−mean)

	// Predict scratch (kernel row and triangular-solve vector).
	kbuf, vbuf []float64
}

// NewRegressor returns a GP with the given kernel and noise variance.
// A non-positive noise is clamped to a small jitter for numerical safety.
func NewRegressor(k Kernel, noise float64) *Regressor {
	if noise <= 0 {
		noise = 1e-8
	}
	return &Regressor{Kernel: k, Noise: noise}
}

// Fit trains the model on inputs x and targets y. It replaces any
// previous fit. x rows are copied by reference; callers must not mutate
// them afterwards.
func (g *Regressor) Fit(x [][]float64, y []float64) error {
	if len(x) == 0 || len(y) == 0 {
		return ErrNoData
	}
	if len(x) != len(y) {
		return fmt.Errorf("gp: %d inputs but %d targets", len(x), len(y))
	}
	n := len(x)
	mean := linalg.Mean(y)
	kmat := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := g.Kernel.Eval(x[i], x[j])
			kmat.Set(i, j, v)
			kmat.Set(j, i, v)
		}
	}
	if err := linalg.AddDiag(kmat, g.Noise); err != nil {
		return err
	}
	chol, err := linalg.Cholesky(kmat)
	if err != nil {
		// Retry with a larger jitter; kernel matrices of near-duplicate
		// samples (common with repeated DB configs) are near-singular.
		if err2 := linalg.AddDiag(kmat, 1e-6*float64(n)); err2 != nil {
			return err2
		}
		chol, err = linalg.Cholesky(kmat)
		if err != nil {
			return err
		}
	}
	resid := make([]float64, n)
	for i, yi := range y {
		resid[i] = yi - mean
	}
	alpha, err := linalg.CholSolve(chol, resid)
	if err != nil {
		return err
	}
	g.x, g.mean, g.chol, g.alpha = x, mean, chol, alpha
	return nil
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
	n := len(g.x)
	if cap(g.kbuf) < n {
		g.kbuf = make([]float64, n)
		g.vbuf = make([]float64, n)
	}
	kstar := g.kbuf[:n]
	for i := range g.x {
		kstar[i] = g.Kernel.Eval(g.x[i], q)
	}
	mean = g.mean + linalg.Dot(kstar, g.alpha)
	v := g.vbuf[:n]
	if err := linalg.SolveLowerInto(g.chol, kstar, v); err != nil {
		return 0, 0, err
	}
	variance = g.Kernel.Eval(q, q) + g.Noise - linalg.Dot(v, v)
	if variance < 0 {
		variance = 0
	}
	return mean, variance, nil
}

// UCB returns the upper-confidence-bound acquisition value mean + beta·σ.
func (g *Regressor) UCB(q []float64, beta float64) (float64, error) {
	m, v, err := g.Predict(q)
	if err != nil {
		return 0, err
	}
	return m + beta*math.Sqrt(v), nil
}
