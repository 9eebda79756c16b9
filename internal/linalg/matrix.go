// Package linalg implements the small dense linear-algebra kernel used by
// the Gaussian-process tuner (internal/gp), the Lasso knob ranker
// (internal/lasso) and the MLP (internal/nn).
//
// It is deliberately minimal: row-major dense matrices, Cholesky
// factorization with triangular solves, and the handful of vector
// helpers those consumers need. Everything is float64 and
// allocation behaviour is explicit (methods that write into a receiver
// never allocate).
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix is
// not (numerically) symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("linalg: matrix not positive definite")

// ErrShape is returned when operand dimensions do not conform.
var ErrShape = errors.New("linalg: dimension mismatch")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix allocates a zeroed r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: negative dimensions %d×%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Dot returns the inner product of equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// AddDiag adds v to every diagonal element of square matrix m in place.
func AddDiag(m *Matrix, v float64) error {
	if m.Rows != m.Cols {
		return fmt.Errorf("%w: AddDiag on %d×%d", ErrShape, m.Rows, m.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+i] += v
	}
	return nil
}

// Cholesky computes the lower-triangular L with m = L·Lᵀ. The input must
// be symmetric positive definite; the strictly upper triangle of the
// result is zero.
func Cholesky(m *Matrix) (*Matrix, error) {
	l := NewMatrix(m.Rows, m.Rows)
	if err := CholeskyInto(l, m); err != nil {
		return nil, err
	}
	return l, nil
}

// CholeskyInto is Cholesky writing the factor into l (n×n, any prior
// contents) without allocating. It reads only the lower triangle of m,
// and l must not alias m. On error l holds a partial factor.
func CholeskyInto(l, m *Matrix) error {
	n := m.Rows
	if m.Cols != n || l.Rows != n || l.Cols != n {
		return fmt.Errorf("%w: CholeskyInto %d×%d into %d×%d", ErrShape, m.Rows, m.Cols, l.Rows, l.Cols)
	}
	for j := 0; j < n; j++ {
		lj := l.Row(j)
		d := m.At(j, j)
		for _, ljk := range lj[:j] {
			d -= ljk * ljk
		}
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("%w: pivot %d = %g", ErrNotPositiveDefinite, j, d)
		}
		dj := math.Sqrt(d)
		lj[j] = dj
		clear(lj[j+1:])
		// Rows i and i+1 accumulate side by side: two independent
		// chains, each summed in the same order as a row alone.
		i := j + 1
		for ; i+1 < n; i += 2 {
			li, li1 := l.Row(i)[:j], l.Row(i + 1)[:j]
			s, s1 := m.At(i, j), m.At(i+1, j)
			for k, ljk := range lj[:j] {
				s -= li[k] * ljk
				s1 -= li1[k] * ljk
			}
			l.Set(i, j, s/dj)
			l.Set(i+1, j, s1/dj)
		}
		if i < n {
			li := l.Row(i)[:j]
			s := m.At(i, j)
			for k, ljk := range lj[:j] {
				s -= li[k] * ljk
			}
			l.Set(i, j, s/dj)
		}
	}
	return nil
}

// SolveLowerInto solves L·y = b for lower-triangular L (forward
// substitution), writing y into dst (len n) without allocating. b and
// dst may alias only if identical.
func SolveLowerInto(l *Matrix, b, dst []float64) error {
	n := l.Rows
	if l.Cols != n || len(b) != n || len(dst) != n {
		return fmt.Errorf("%w: SolveLowerInto %d×%d with b %d dst %d", ErrShape, l.Rows, l.Cols, len(b), len(dst))
	}
	// Rows i and i+1 accumulate side by side over dst[:i], then row i+1
	// takes its last term from the fresh dst[i]: each row still sums in
	// index order, as it would alone.
	i := 0
	for ; i+1 < n; i += 2 {
		row, row1 := l.Row(i)[:i+1], l.Row(i + 1)[:i+2]
		s, s1 := b[i], b[i+1]
		for k, x := range dst[:i] {
			s -= row[k] * x
			s1 -= row1[k] * x
		}
		if row[i] == 0 {
			return fmt.Errorf("%w: zero diagonal at %d", ErrNotPositiveDefinite, i)
		}
		dst[i] = s / row[i]
		s1 -= row1[i] * dst[i]
		if row1[i+1] == 0 {
			return fmt.Errorf("%w: zero diagonal at %d", ErrNotPositiveDefinite, i+1)
		}
		dst[i+1] = s1 / row1[i+1]
	}
	if i < n {
		s := b[i]
		row := l.Row(i)
		for k, x := range dst[:i] {
			s -= row[k] * x
		}
		if row[i] == 0 {
			return fmt.Errorf("%w: zero diagonal at %d", ErrNotPositiveDefinite, i)
		}
		dst[i] = s / row[i]
	}
	return nil
}

// SolveUpperFromLowerInto solves Lᵀ·x = y given lower-triangular L
// (back substitution against the implicit transpose), writing x into
// dst (len n) without allocating. y and dst may alias only if
// identical.
func SolveUpperFromLowerInto(l *Matrix, y, dst []float64) error {
	n := l.Rows
	if l.Cols != n || len(y) != n || len(dst) != n {
		return fmt.Errorf("%w: SolveUpperFromLowerInto %d×%d with y %d dst %d", ErrShape, l.Rows, l.Cols, len(y), len(dst))
	}
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * dst[k]
		}
		d := l.At(i, i)
		if d == 0 {
			return fmt.Errorf("%w: zero diagonal at %d", ErrNotPositiveDefinite, i)
		}
		dst[i] = s / d
	}
	return nil
}

// CholSolveInto solves m·x = b given the Cholesky factor L of m,
// writing x into dst (len n) without allocating. b and dst may alias
// only if identical.
func CholSolveInto(l *Matrix, b, dst []float64) error {
	if err := SolveLowerInto(l, b, dst); err != nil {
		return err
	}
	return SolveUpperFromLowerInto(l, dst, dst)
}

// AXPY computes y += a·x in place and returns y.
func AXPY(a float64, x, y []float64) []float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: AXPY length mismatch %d vs %d", len(x), len(y)))
	}
	for i := range x {
		y[i] += a * x[i]
	}
	return y
}

// Mean returns the arithmetic mean of v (0 for empty input).
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Variance returns the population variance of v (0 for len<2).
func Variance(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	m := Mean(v)
	var s float64
	for _, x := range v {
		d := x - m
		s += d * d
	}
	return s / float64(len(v))
}

// Pearson returns the Pearson correlation of equal-length vectors, or 0
// when either is constant.
func Pearson(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	ma, mb := Mean(a), Mean(b)
	var sab, saa, sbb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		sab += da * db
		saa += da * da
		sbb += db * db
	}
	if saa == 0 || sbb == 0 {
		return 0
	}
	return sab / math.Sqrt(saa*sbb)
}

// EuclideanDistance returns ‖a−b‖₂.
func EuclideanDistance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: distance length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
