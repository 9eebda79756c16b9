package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// with fewer, the value is one outlier, not a tail.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 100) of samples by
// nearest rank. It refuses a percentile with fewer than minBeyond
// samples beyond it: p95 needs 200 samples, p50 needs 20.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v outside (0,100)", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based
	if beyond := n - rank; rank < 1 || beyond < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples leaves %d beyond it, need %d", p, n, n-rank, minBeyond)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return sorted[rank-1], nil
}

// tailPercentile returns p95 when the sample count allows it, and
// otherwise the highest percentile that still leaves minBeyond samples
// beyond it (quick sizes), with the percentile actually used.
func tailPercentile(samples []float64) (value, p float64, err error) {
	if v, err := percentile(samples, 95); err == nil {
		return v, 95, nil
	}
	n := len(samples)
	rank := n - minBeyond
	if rank < 1 {
		return 0, 0, fmt.Errorf("%d samples: no percentile leaves %d beyond it", n, minBeyond)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return sorted[rank-1], 100 * float64(rank) / float64(n), nil
}

// median is the plain middle value (mean of the two middle ones for an
// even count); unlike percentile it accepts any non-empty sample, for
// summarising a handful of repeated measurements.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// relSpread is (max-min)/|median|: how far repeated runs of one metric
// disagree, as a share of their median.
func relSpread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	lo, hi := values[0], values[0]
	for _, v := range values[1:] {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	m := math.Abs(median(values))
	if m == 0 {
		if hi == lo {
			return 0
		}
		return math.Inf(1)
	}
	return (hi - lo) / m
}

func sum(values []float64) float64 {
	var s float64
	for _, v := range values {
		s += v
	}
	return s
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
