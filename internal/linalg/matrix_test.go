package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// mat2 builds the 2×2 matrix [[a, b], [c, d]].
func mat2(a, b, c, d float64) *Matrix {
	return &Matrix{Rows: 2, Cols: 2, Data: []float64{a, b, c, d}}
}

// randSPD builds a random symmetric positive-definite n×n matrix
// (Gram matrix of random vectors plus a diagonal shift).
func randSPD(rng *rand.Rand, n int, shift float64) *Matrix {
	g := NewMatrix(n, n+3)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := Dot(g.Row(i), g.Row(j))
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	for i := 0; i < n; i++ {
		m.Data[i*n+i] += shift
	}
	return m
}

func TestTranspose(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6}}
	at := a.T()
	if at.Rows != 3 || at.Cols != 2 || at.At(2, 1) != 6 {
		t.Fatalf("transpose wrong: %+v", at)
	}
}

func TestCholeskyKnown(t *testing.T) {
	// M = [[4,2],[2,3]] → L = [[2,0],[1,sqrt(2)]]
	l, err := Cholesky(mat2(4, 2, 2, 3))
	if err != nil {
		t.Fatalf("Cholesky: %v", err)
	}
	if !almostEqual(l.At(0, 0), 2, 1e-12) || !almostEqual(l.At(1, 0), 1, 1e-12) ||
		!almostEqual(l.At(1, 1), math.Sqrt2, 1e-12) || l.At(0, 1) != 0 {
		t.Fatalf("L = %+v", l)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	m := mat2(1, 2, 2, 1) // eigenvalues 3, -1
	if _, err := Cholesky(m); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
}

func TestCholSolveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 12
	a := randSPD(rng, n, float64(n))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = Dot(a.Row(i), x)
	}
	l, err := Cholesky(a)
	if err != nil {
		t.Fatalf("Cholesky: %v", err)
	}
	got := make([]float64, n)
	if err := CholSolveInto(l, rhs, got); err != nil {
		t.Fatalf("CholSolveInto: %v", err)
	}
	for i := range x {
		if !almostEqual(got[i], x[i], 1e-8) {
			t.Fatalf("x[%d] = %g, want %g", i, got[i], x[i])
		}
	}
}

func TestSolveLowerAndUpper(t *testing.T) {
	l := mat2(2, 0, 1, 3)
	y := make([]float64, 2)
	if err := SolveLowerInto(l, []float64{4, 10}, y); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(y[0], 2, 1e-12) || !almostEqual(y[1], 8.0/3, 1e-12) {
		t.Fatalf("forward solve = %v", y)
	}
	x := make([]float64, 2)
	if err := SolveUpperFromLowerInto(l, []float64{4, 9}, x); err != nil {
		t.Fatal(err)
	}
	// Lᵀ = [[2,1],[0,3]]; x₂ = 3, x₁ = (4-3)/2 = 0.5
	if !almostEqual(x[1], 3, 1e-12) || !almostEqual(x[0], 0.5, 1e-12) {
		t.Fatalf("backward solve = %v", x)
	}
}

func TestStatsHelpers(t *testing.T) {
	v := []float64{1, 2, 3, 4}
	if Mean(v) != 2.5 {
		t.Fatalf("Mean = %g", Mean(v))
	}
	if !almostEqual(Variance(v), 1.25, 1e-12) {
		t.Fatalf("Variance = %g", Variance(v))
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Fatal("degenerate stats not zero")
	}
}

func TestPearson(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	if got := Pearson(a, a); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("self correlation = %g", got)
	}
	neg := []float64{4, 3, 2, 1}
	if got := Pearson(a, neg); !almostEqual(got, -1, 1e-12) {
		t.Fatalf("anti correlation = %g", got)
	}
	if got := Pearson(a, []float64{5, 5, 5, 5}); got != 0 {
		t.Fatalf("constant correlation = %g, want 0", got)
	}
}

func TestAXPY(t *testing.T) {
	y := AXPY(2, []float64{1, 2}, []float64{10, 20})
	if y[0] != 12 || y[1] != 24 {
		t.Fatalf("AXPY = %v", y)
	}
}

// Property: for random SPD matrices, L·Lᵀ reconstructs the input.
func TestCholeskyReconstructionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		a := randSPD(rng, n, float64(n))
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := a.At(i, j)
				if !almostEqual(Dot(l.Row(i), l.Row(j)), want, 1e-8*(1+math.Abs(want))) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Euclidean distance satisfies symmetry and identity.
func TestEuclideanDistanceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(16)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		d1, d2 := EuclideanDistance(a, b), EuclideanDistance(b, a)
		return almostEqual(d1, d2, 1e-12) && EuclideanDistance(a, a) == 0 && d1 >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// choleskyByAt is the element-accessor factorization CholeskyInto must
// reproduce bit for bit.
func choleskyByAt(m *Matrix) (*Matrix, error) {
	n := m.Rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		d := m.At(j, j)
		for k := 0; k < j; k++ {
			ljk := l.At(j, k)
			d -= ljk * ljk
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotPositiveDefinite
		}
		dj := math.Sqrt(d)
		l.Set(j, j, dj)
		for i := j + 1; i < n; i++ {
			s := m.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/dj)
		}
	}
	return l, nil
}

// TestCholeskyIntoReusesDirtyBuffer: a factor buffer holding a previous,
// larger factorization yields the same bits as a fresh one, including a
// zero upper triangle, and the solves into it match the solves against
// the reference factor.
func TestCholeskyIntoReusesDirtyBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	buf := make([]float64, 20*20)
	for i := range buf {
		buf[i] = rng.NormFloat64()
	}
	for _, n := range []int{20, 7, 13, 1} {
		m := randSPD(rng, n, 1e-3)
		want, err := choleskyByAt(m)
		if err != nil {
			t.Fatal(err)
		}
		l := &Matrix{Rows: n, Cols: n, Data: buf[:n*n]}
		if err := CholeskyInto(l, m); err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if math.Float64bits(want.Data[i]) != math.Float64bits(l.Data[i]) {
				t.Fatalf("n=%d element %d: %g vs %g", n, i, l.Data[i], want.Data[i])
			}
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		wantX := make([]float64, n)
		if err := CholSolveInto(want, b, wantX); err != nil {
			t.Fatal(err)
		}
		x := append([]float64(nil), b...)
		if err := CholSolveInto(l, x, x); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if math.Float64bits(wantX[i]) != math.Float64bits(x[i]) {
				t.Fatalf("n=%d solve element %d: %g vs %g", n, i, x[i], wantX[i])
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := CholeskyInto(l, m); err != nil {
				t.Fatal(err)
			}
			if err := CholSolveInto(l, b, x); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Fatalf("CholeskyInto+CholSolveInto allocate %.1f objects/op, want 0", allocs)
		}
	}
	if err := CholeskyInto(NewMatrix(2, 2), NewMatrix(3, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("mismatched factor buffer: err = %v, want ErrShape", err)
	}
	if _, err := Cholesky(NewMatrix(2, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("non-square input: err = %v, want ErrShape", err)
	}
}

// TestSolvesMatchPlainSubstitution: the paired-row forward solve and
// the back solve give the bits of one-row-at-a-time substitution, for
// odd and even sizes, in place and not.
func TestSolvesMatchPlainSubstitution(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, n := range []int{1, 2, 3, 8, 11} {
		l, err := Cholesky(randSPD(rng, n, 1e-2))
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		fwd := make([]float64, n)
		for i := 0; i < n; i++ {
			s := b[i]
			for k := 0; k < i; k++ {
				s -= l.At(i, k) * fwd[k]
			}
			fwd[i] = s / l.At(i, i)
		}
		back := make([]float64, n)
		for i := n - 1; i >= 0; i-- {
			s := fwd[i]
			for k := i + 1; k < n; k++ {
				s -= l.At(k, i) * back[k]
			}
			back[i] = s / l.At(i, i)
		}
		got := append([]float64(nil), b...)
		if err := SolveLowerInto(l, got, got); err != nil {
			t.Fatal(err)
		}
		for i := range fwd {
			if math.Float64bits(got[i]) != math.Float64bits(fwd[i]) {
				t.Fatalf("n=%d forward element %d: %g vs %g", n, i, got[i], fwd[i])
			}
		}
		if err := SolveUpperFromLowerInto(l, got, got); err != nil {
			t.Fatal(err)
		}
		for i := range back {
			if math.Float64bits(got[i]) != math.Float64bits(back[i]) {
				t.Fatalf("n=%d back element %d: %g vs %g", n, i, got[i], back[i])
			}
		}
	}
}
