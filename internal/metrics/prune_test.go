package metrics

import (
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"autodbaas/internal/linalg"
)

// pruneByPairs is Prune's definition: linalg.Variance per column and
// linalg.Pearson per pair of columns, each recomputing its means.
func pruneByPairs(rows [][]float64, varEps, corrMax float64) []int {
	if len(rows) == 0 {
		return nil
	}
	p := len(rows[0])
	cols := make([][]float64, p)
	for j := range cols {
		cols[j] = make([]float64, len(rows))
		for i := range rows {
			cols[j][i] = rows[i][j]
		}
	}
	var kept []int
	for j := 0; j < p; j++ {
		if linalg.Variance(cols[j]) <= varEps {
			continue
		}
		dup := false
		for _, k := range kept {
			if math.Abs(linalg.Pearson(cols[j], cols[k])) >= corrMax {
				dup = true
				break
			}
		}
		if !dup {
			kept = append(kept, j)
		}
	}
	sort.Ints(kept)
	return kept
}

// TestPruneMatchesPairwiseDefinition: centring each column once gives
// exactly the pairwise definition's kept set, on random, correlated,
// constant, single-row, two-row and non-finite inputs.
func TestPruneMatchesPairwiseDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var reused Pruner // one Pruner across every shape: its buffers start dirty
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, 7, 1e300, -1e-300}
	for trial := 0; trial < 400; trial++ {
		n, p := 1+rng.Intn(12), 1+rng.Intn(10)
		if trial%7 == 0 {
			n = 1 + trial%2 // one or two rows
		}
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, p)
			base := rng.NormFloat64()
			for j := range rows[i] {
				switch rng.Intn(6) {
				case 0:
					rows[i][j] = 3 // constant-ish column values
				case 1:
					rows[i][j] = 2*base + 1 // correlated with the row's other columns
				case 2:
					if trial%3 == 0 {
						rows[i][j] = special[rng.Intn(len(special))]
						continue
					}
					fallthrough
				default:
					rows[i][j] = rng.NormFloat64() * 100
				}
			}
		}
		for _, eps := range []float64{1e-12, 0, -1, math.NaN()} {
			for _, corr := range []float64{0.98, 0.5, 0, math.Inf(1)} {
				want := pruneByPairs(rows, eps, corr)
				if got := Prune(rows, eps, corr); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d eps=%g corr=%g: Prune = %v, pairwise = %v\nrows: %v", trial, eps, corr, got, want, rows)
				}
				if got := reused.Prune(rows, eps, corr); !slices.Equal(got, want) {
					t.Fatalf("trial %d eps=%g corr=%g: reused Pruner = %v, pairwise = %v", trial, eps, corr, got, want)
				}
			}
		}
	}
	if Prune(nil, 0, 0.9) != nil || pruneByPairs(nil, 0, 0.9) != nil {
		t.Fatal("empty input must keep nothing")
	}
}

// TestPrunerReuseAllocatesNothing: once grown, a Pruner prunes without
// allocating.
func TestPrunerReuseAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	rows := make([][]float64, 30)
	for i := range rows {
		rows[i] = make([]float64, 20)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	var p Pruner
	p.Prune(rows, 1e-12, 0.98)
	if allocs := testing.AllocsPerRun(20, func() { p.Prune(rows, 1e-12, 0.98) }); allocs > 0 {
		t.Fatalf("a warm Pruner allocates %.1f objects/op, want 0", allocs)
	}
}

// TestPrunerGrowsGeometrically: pruning one more row per call, as
// workload mapping does per new donor, reallocates the Pruner's buffer
// O(log n) times, not once per row.
func TestPrunerGrowsGeometrically(t *testing.T) {
	const n, cols = 512, 35
	rng := rand.New(rand.NewSource(61))
	rows := make([][]float64, n)
	var p Pruner
	reallocs, lastCap := 0, 0
	for i := range rows {
		rows[i] = make([]float64, cols)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
		p.Prune(rows[:i+1], 1e-12, 0.98)
		if c := cap(p.centred); c != lastCap {
			reallocs, lastCap = reallocs+1, c
		}
	}
	if limit := 2 * bits.Len(n); reallocs > limit {
		t.Fatalf("%d rows added one at a time reallocated the buffer %d times, want at most %d", n, reallocs, limit)
	}
}

// TestDecileIntoReuseAllocatesNothing: with its scratch grown, DecileInto
// bins without allocating.
func TestDecileIntoReuseAllocatesNothing(t *testing.T) {
	rows := [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 10}}
	var scratch []float64
	DecileInto(rows, rows, &scratch)
	if allocs := testing.AllocsPerRun(20, func() { DecileInto(rows, rows, &scratch) }); allocs > 0 {
		t.Fatalf("DecileInto with a grown scratch allocates %.1f objects/op, want 0", allocs)
	}
}

// FuzzPrune compares Prune with the pairwise definition on arbitrary
// float bits, NaN and ±Inf included.
func FuzzPrune(f *testing.F) {
	seed := func(vals ...float64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add(uint8(3), uint8(2), seed(1, 2, 3, 4, 5, 6), 1e-12, 0.98)
	f.Add(uint8(1), uint8(3), seed(1, 2, 3), 0.0, 0.5)
	f.Add(uint8(2), uint8(2), seed(math.NaN(), 1, math.Inf(1), 2), -1.0, 0.0)
	f.Add(uint8(4), uint8(1), seed(7, 7, 7, 7), 0.0, 0.98)
	f.Fuzz(func(t *testing.T, n, p uint8, data []byte, varEps, corrMax float64) {
		rn, cp := 1+int(n%16), 1+int(p%12)
		rows := make([][]float64, rn)
		for i := range rows {
			rows[i] = make([]float64, cp)
			for j := range rows[i] {
				if off := 8 * (i*cp + j); off+8 <= len(data) {
					rows[i][j] = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
				}
			}
		}
		if got, want := Prune(rows, varEps, corrMax), pruneByPairs(rows, varEps, corrMax); !reflect.DeepEqual(got, want) {
			t.Fatalf("Prune = %v, pairwise = %v (eps=%g corr=%g rows=%v)", got, want, varEps, corrMax, rows)
		}
	})
}

// TestDecileIntoInPlace: binning rows onto themselves, on a dirty
// destination, matches the allocating Decile.
func TestDecileIntoInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	rows := make([][]float64, 9)
	for i := range rows {
		rows[i] = []float64{rng.NormFloat64(), 4, float64(i)}
	}
	want := Decile(rows)
	var scratch []float64
	DecileInto(rows, rows, &scratch)
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("in place: %v, want %v", rows, want)
	}
}
