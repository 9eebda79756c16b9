package gp

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"autodbaas/internal/linalg"
)

// genSamples draws n smooth-function samples in dim dimensions.
func genSamples(seed int64, n, dim int) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, dim)
		for j := range row {
			row[j] = rng.Float64()
		}
		x[i] = row
		y[i] = math.Sin(3*row[0]) + row[1]*row[dim-1] + 0.05*rng.NormFloat64()
	}
	return x, y
}

// newSparseRegressor returns a model configured to go sparse at
// threshold with m inducing points.
func newSparseRegressor(dim, threshold, m int) *Regressor {
	g := NewRegressor(NewSEARD(dim, 0.6, 1.0), 1e-4)
	g.SparseThreshold = threshold
	g.InducingPoints = m
	return g
}

// TestSparsePathEngagesAtThreshold pins the path-selection rule: below
// the threshold the model is the exact one (chol set, sparse nil), at
// or above it the inducing-point state takes over, and refitting small
// drops back to exact.
func TestSparsePathEngagesAtThreshold(t *testing.T) {
	x, y := genSamples(1, 80, 3)
	g := newSparseRegressor(3, 60, 16)
	if err := g.Fit(x[:59], y[:59]); err != nil {
		t.Fatal(err)
	}
	if g.Sparse() || g.chol == nil {
		t.Fatal("below threshold the model must stay exact")
	}
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if !g.Sparse() || g.chol != nil {
		t.Fatal("at threshold the model must switch to the sparse path")
	}
	if got := g.InducingSetSize(); got != 16 {
		t.Fatalf("inducing set size = %d, want 16", got)
	}
	if !g.Fitted() || g.NumSamples() != 80 {
		t.Fatalf("sparse model: Fitted=%v NumSamples=%d", g.Fitted(), g.NumSamples())
	}
	if _, _, err := g.Predict(x[5]); err != nil {
		t.Fatal(err)
	}
	if err := g.Fit(x[:10], y[:10]); err != nil {
		t.Fatal(err)
	}
	if g.Sparse() {
		t.Fatal("refit below threshold must return to the exact path")
	}
}

// TestSparseAddCrossesThresholdFromExact drives an exact model over the
// threshold via Add and checks the switch happens exactly at the
// boundary.
func TestSparseAddCrossesThresholdFromExact(t *testing.T) {
	x, y := genSamples(2, 70, 3)
	g := newSparseRegressor(3, 64, 12)
	if err := g.Fit(x[:50], y[:50]); err != nil {
		t.Fatal(err)
	}
	for i := 50; i < 70; i++ {
		if err := g.Add(x[i], y[i]); err != nil {
			t.Fatal(err)
		}
		wantSparse := i+1 >= 64
		if g.Sparse() != wantSparse {
			t.Fatalf("after %d samples Sparse()=%v, want %v", i+1, g.Sparse(), wantSparse)
		}
	}
}

// TestSparseAddMatchesBatchAccumulation is the sparse analogue of the
// exact path's Add ≡ Fit bitwise contract: extending the accumulators
// one sample at a time must leave B, sky, sk and sumY bit-for-bit
// identical to accumulating the full training set in one pass against
// the same inducing set.
func TestSparseAddMatchesBatchAccumulation(t *testing.T) {
	x, y := genSamples(3, 100, 4)
	g := newSparseRegressor(4, 60, 16)
	if err := g.Fit(x[:70], y[:70]); err != nil {
		t.Fatal(err)
	}
	for i := 70; i < 100; i++ { // 100 < 2·70, so no refresh fires
		if err := g.Add(x[i], y[i]); err != nil {
			t.Fatal(err)
		}
	}
	st := g.sparse
	if st.fitN != 70 {
		t.Fatalf("inducing set refreshed unexpectedly: fitN=%d", st.fitN)
	}

	// Rebuild the accumulators from scratch over all 100 samples with
	// the same inducing set.
	m := len(st.zidx)
	kuu := linalg.NewMatrix(m, m)
	for i := 0; i < m; i++ {
		for j := i; j < m; j++ {
			v := g.Kernel.Eval(st.z[i], st.z[j])
			kuu.Set(i, j, v)
			kuu.Set(j, i, v)
		}
	}
	if err := linalg.AddDiag(kuu, sparseJitter); err != nil {
		t.Fatal(err)
	}
	b := kuu.Clone()
	for i := range b.Data {
		b.Data[i] *= g.Noise
	}
	sky := make([]float64, m)
	sk := make([]float64, m)
	sumY := 0.0
	k := make([]float64, m)
	for i := 0; i < 100; i++ {
		for j := 0; j < m; j++ {
			k[j] = g.Kernel.Eval(st.z[j], x[i])
		}
		accumulateSample(b, sky, sk, k, y[i])
		sumY += y[i]
	}
	if math.Float64bits(sumY) != math.Float64bits(st.sumY) {
		t.Fatalf("sumY: %x != %x", math.Float64bits(sumY), math.Float64bits(st.sumY))
	}
	for i := range b.Data {
		if math.Float64bits(b.Data[i]) != math.Float64bits(st.b.Data[i]) {
			t.Fatalf("B[%d]: %x != %x", i, math.Float64bits(b.Data[i]), math.Float64bits(st.b.Data[i]))
		}
	}
	for i := range sky {
		if math.Float64bits(sky[i]) != math.Float64bits(st.sky[i]) {
			t.Fatalf("sky[%d] mismatch", i)
		}
		if math.Float64bits(sk[i]) != math.Float64bits(st.sk[i]) {
			t.Fatalf("sk[%d] mismatch", i)
		}
	}
}

// TestSparseRefreshDoubling pins the refresh cadence: the inducing set
// is reselected once the training set has doubled since the last
// selection, and not before.
func TestSparseRefreshDoubling(t *testing.T) {
	x, y := genSamples(4, 130, 3)
	g := newSparseRegressor(3, 60, 8)
	if err := g.Fit(x[:60], y[:60]); err != nil {
		t.Fatal(err)
	}
	if g.sparse.fitN != 60 {
		t.Fatalf("fitN=%d after fit", g.sparse.fitN)
	}
	for i := 60; i < 119; i++ {
		if err := g.Add(x[i], y[i]); err != nil {
			t.Fatal(err)
		}
		if g.sparse.fitN != 60 {
			t.Fatalf("refresh fired early at n=%d", i+1)
		}
	}
	// The 120th sample doubles the set: refresh.
	if err := g.Add(x[119], y[119]); err != nil {
		t.Fatal(err)
	}
	if g.sparse.fitN != 120 {
		t.Fatalf("refresh did not fire at the doubling point: fitN=%d", g.sparse.fitN)
	}
	if g.addsSinceFit != 0 {
		t.Fatalf("addsSinceFit=%d after refresh", g.addsSinceFit)
	}
}

// TestSparsePredictTracksExact checks approximation quality: on a
// smooth target with a healthy inducing budget, sparse predictions stay
// close to the exact GP's on held-out query points and the variance is
// non-negative and finite.
func TestSparsePredictTracksExact(t *testing.T) {
	x, y := genSamples(5, 200, 3)
	exact := NewRegressor(NewSEARD(3, 0.6, 1.0), 1e-4)
	if err := exact.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	sparse := newSparseRegressor(3, 100, 48)
	if err := sparse.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	qs, _ := genSamples(6, 50, 3)
	var worst float64
	for _, q := range qs {
		me, _, err := exact.Predict(q)
		if err != nil {
			t.Fatal(err)
		}
		ms, vs, err := sparse.Predict(q)
		if err != nil {
			t.Fatal(err)
		}
		if vs < 0 || math.IsNaN(ms) || math.IsNaN(vs) || math.IsInf(ms, 0) || math.IsInf(vs, 0) {
			t.Fatalf("degenerate sparse posterior at %v: mean=%v var=%v", q, ms, vs)
		}
		if d := math.Abs(me - ms); d > worst {
			worst = d
		}
	}
	if worst > 0.25 {
		t.Fatalf("sparse posterior mean drifts %.3f from exact (want ≤ 0.25)", worst)
	}
}

// TestSparseCheckpointRoundTrip is the checkpoint contract for the
// sparse path: the inducing set, both factors, the running accumulators
// and the refresh counters all survive a marshal/unmarshal cycle
// Float64bits-exact, and the restored model keeps agreeing bitwise with
// the original through further Adds — including across an inducing-set
// refresh.
func TestSparseCheckpointRoundTrip(t *testing.T) {
	x, y := genSamples(7, 90, 4)
	g := newSparseRegressor(4, 60, 16)
	if err := g.Fit(x[:64], y[:64]); err != nil {
		t.Fatal(err)
	}
	for i := 64; i < 80; i++ {
		if err := g.Add(x[i], y[i]); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := g.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var h Regressor
	if err := h.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if !h.Sparse() {
		t.Fatal("sparse state lost in round trip")
	}
	if h.SparseThreshold != g.SparseThreshold || h.InducingPoints != g.InducingPoints {
		t.Fatalf("sparse config lost: %d/%d vs %d/%d", h.SparseThreshold, h.InducingPoints, g.SparseThreshold, g.InducingPoints)
	}
	a, b := g.sparse, h.sparse
	if a.fitN != b.fitN || len(a.zidx) != len(b.zidx) {
		t.Fatalf("counters: fitN %d/%d, m %d/%d", a.fitN, b.fitN, len(a.zidx), len(b.zidx))
	}
	for i := range a.zidx {
		if a.zidx[i] != b.zidx[i] {
			t.Fatalf("zidx[%d]: %d != %d", i, a.zidx[i], b.zidx[i])
		}
	}
	if math.Float64bits(a.sumY) != math.Float64bits(b.sumY) {
		t.Fatal("sumY mismatch")
	}
	eqVec := func(name string, u, v []float64) {
		t.Helper()
		if len(u) != len(v) {
			t.Fatalf("%s: len %d != %d", name, len(u), len(v))
		}
		for i := range u {
			if math.Float64bits(u[i]) != math.Float64bits(v[i]) {
				t.Fatalf("%s[%d]: %x != %x", name, i, math.Float64bits(u[i]), math.Float64bits(v[i]))
			}
		}
	}
	eqVec("cholKuu", a.cholKuu.Data, b.cholKuu.Data)
	eqVec("B", a.b.Data, b.b.Data)
	eqVec("cholB", a.cholB.Data, b.cholB.Data)
	eqVec("alpha", a.alpha, b.alpha)
	eqVec("sky", a.sky, b.sky)
	eqVec("sk", a.sk, b.sk)

	// Behavioral equality through further Adds, across the refresh at
	// n=128 (2·64).
	for i := 80; i < 90; i++ {
		if err := g.Add(x[i], y[i]); err != nil {
			t.Fatal(err)
		}
		if err := h.Add(x[i], y[i]); err != nil {
			t.Fatal(err)
		}
	}
	extra, ey := genSamples(8, 50, 4)
	for i := range extra {
		if err := g.Add(extra[i], ey[i]); err != nil {
			t.Fatal(err)
		}
		if err := h.Add(extra[i], ey[i]); err != nil {
			t.Fatal(err)
		}
	}
	if g.sparse.fitN != 128 || h.sparse.fitN != 128 {
		t.Fatalf("expected both models refreshed at 128: %d vs %d", g.sparse.fitN, h.sparse.fitN)
	}
	q := extra[0]
	m1, v1, err1 := g.Predict(q)
	m2, v2, err2 := h.Predict(q)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if math.Float64bits(m1) != math.Float64bits(m2) || math.Float64bits(v1) != math.Float64bits(v2) {
		t.Fatalf("post-restore prediction diverged: (%v,%v) vs (%v,%v)", m1, v1, m2, v2)
	}
}

// TestSparseVersionSkewRejected pins the version gate: a version-1 blob
// (the pre-sparse format) must be rejected, not silently read with the
// sparse section missing.
func TestSparseVersionSkewRejected(t *testing.T) {
	g := fitDemoModel(t, 10)
	blob, err := g.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	v1 := append([]byte(nil), blob...)
	v1[3] = 1
	var h Regressor
	if err := h.UnmarshalBinary(v1); err == nil {
		t.Fatal("version-1 blob unmarshalled without error")
	}
}

// TestSparsePredictScratchNoAllocs mirrors the exact path's
// no-allocation contract for the candidate-search loop.
func TestSparsePredictScratchNoAllocs(t *testing.T) {
	x, y := genSamples(9, 120, 3)
	g := newSparseRegressor(3, 100, 32)
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	q := []float64{0.4, 0.5, 0.6}
	if _, _, err := g.Predict(q); err != nil { // warm the buffers
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := g.Predict(q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("sparse Predict allocates %.1f per call, want 0", allocs)
	}
}

// TestSparseCrossThresholdAfterRestore is the kill/restore contract at
// the exact→sparse boundary: a model checkpointed while still exact
// (below SparseThreshold), restored into a fresh Regressor and then
// driven past the threshold with Add must cross to the sparse path at
// the same sample, serialize bit-for-bit identically to the
// uninterrupted model, and agree with it to the last bit on every
// prediction.
func TestSparseCrossThresholdAfterRestore(t *testing.T) {
	x, y := genSamples(11, 90, 3)
	const threshold = 64

	build := func() *Regressor {
		g := newSparseRegressor(3, threshold, 12)
		if err := g.Fit(x[:50], y[:50]); err != nil {
			t.Fatal(err)
		}
		return g
	}

	// Uninterrupted reference: straight through the threshold.
	ref := build()
	for i := 50; i < 90; i++ {
		if err := ref.Add(x[i], y[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !ref.Sparse() {
		t.Fatal("reference never went sparse — threshold not exercised")
	}

	// Interrupted twin: checkpoint while exact, restore, then continue.
	g := build()
	if g.Sparse() {
		t.Fatal("model went sparse before the checkpoint — the test needs an exact snapshot")
	}
	blob, err := g.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var h Regressor
	if err := h.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	for i := 50; i < 90; i++ {
		if err := h.Add(x[i], y[i]); err != nil {
			t.Fatal(err)
		}
		if h.Sparse() != (i+1 >= threshold) {
			t.Fatalf("restored model: after %d samples Sparse()=%v", i+1, h.Sparse())
		}
	}

	refBlob, err := ref.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	gotBlob, err := h.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(refBlob) != len(gotBlob) {
		t.Fatalf("serialized sizes diverged: %d vs %d", len(refBlob), len(gotBlob))
	}
	for i := range refBlob {
		if refBlob[i] != gotBlob[i] {
			t.Fatalf("serialized state diverged at byte %d", i)
		}
	}
	for i := 0; i < 90; i += 7 {
		m1, v1, err := ref.Predict(x[i])
		if err != nil {
			t.Fatal(err)
		}
		m2, v2, err := h.Predict(x[i])
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(m1) != math.Float64bits(m2) || math.Float64bits(v1) != math.Float64bits(v2) {
			t.Fatalf("prediction %d diverged: (%v,%v) vs (%v,%v)", i, m1, v1, m2, v2)
		}
	}
}

// TestSparseRecommendCostFlatInHistory pins the sparse path's scaling
// contract: the per-window recommendation cost (absorb one sample with
// Add, then Predict one candidate) must grow at most 2× while stored
// history grows 16× (n = 1,000 → 16,000; m = 64, dim 10). Each side is
// the min over 5 repetitions of 32 Add+Predict pairs, the repetitions
// of the two sides interleaved, so the ratio of same-process timings
// cancels host speed and most of its noise.
func TestSparseRecommendCostFlatInHistory(t *testing.T) {
	const (
		dim, m    = 10, 64
		pairs     = 32
		reps      = 5
		maxGrowth = 2.0
	)
	type side struct {
		n    int
		x    [][]float64
		y    []float64
		g    *Regressor
		best time.Duration
	}
	sides := []*side{{n: 1000}, {n: 16000}}
	for _, s := range sides {
		s.x, s.y = genSamples(1, s.n+reps*pairs, dim)
		s.g = newSparseRegressor(dim, 512, m)
		if err := s.g.Fit(s.x[:s.n], s.y[:s.n]); err != nil {
			t.Fatal(err)
		}
		if !s.g.Sparse() {
			t.Fatalf("n=%d: model stayed exact", s.n)
		}
		s.best = time.Duration(math.MaxInt64)
	}
	for r := 0; r < reps; r++ {
		for _, s := range sides {
			runtime.GC() // keep earlier garbage out of this timing
			t0 := time.Now()
			for i := s.n + r*pairs; i < s.n+(r+1)*pairs; i++ {
				if err := s.g.Add(s.x[i], s.y[i]); err != nil {
					t.Fatal(err)
				}
				if _, _, err := s.g.Predict(s.x[i]); err != nil {
					t.Fatal(err)
				}
			}
			s.best = min(s.best, time.Since(t0)/pairs)
		}
	}
	small, large := sides[0].best, sides[1].best
	ratio := float64(large) / float64(small)
	t.Logf("Add+Predict: n=1000 %v, n=16000 %v, ratio %.2f", small, large, ratio)
	if ratio > maxGrowth {
		t.Fatalf("sparse recommendation cost grew %.2f× from n=1000 to n=16000; contract is ≤ %.1f×", ratio, maxGrowth)
	}
}
