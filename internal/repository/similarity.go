package repository

import (
	"math"
	"sort"
	"strings"

	"autodbaas/internal/knobs"
	"autodbaas/internal/linalg"
	"autodbaas/internal/metrics"
	"autodbaas/internal/tuner"
)

// Workload similarity query — the paper's workload-mapping distance
// (prune low-information metrics, decile-bin, Euclidean distance)
// promoted from one tuner's training loop to a fleet-scope repository
// query, so the control plane can warm-start a brand-new instance from
// the history of instances that ran the same workload kind.
//
// A freshly provisioned instance has no observed metrics yet, so the
// target side of the paper's mapping does not exist. Candidates are
// therefore ranked by how *central* they are among their peers: each
// candidate's mean metric vector is binned against the cohort, and the
// candidate closest to the cohort centroid wins — the most typical
// donor, not an outlier that happened to see a pathological load. Ties
// break toward the lexicographically smaller workload ID, and the
// candidate enumeration is sorted, so the ranking is deterministic for
// a given store state.

// WorkloadMatch is one ranked donor workload.
type WorkloadMatch struct {
	// WorkloadID is the stored workload ("<instance>/<generator>").
	WorkloadID string
	// Distance is the decile-space distance to the cohort centroid
	// (smaller = more representative).
	Distance float64
	// Samples is the donor's stored history size.
	Samples int
}

// SimilarWorkloads ranks stored workloads whose generator suffix
// matches workloadName and whose engine matches, excluding excludeID
// (the instance being provisioned) and donors with fewer than
// minSamples stored samples. All history counts, not just TDE-gated
// quality windows: the best donors are the ones that tuned themselves
// out of throttling and stopped producing quality samples entirely.
// The result is ordered most-representative first. An empty result
// means there is no usable donor — the cold start the caller falls
// back to.
func (r *Repository) SimilarWorkloads(engine string, workloadName, excludeID string, minSamples int) []WorkloadMatch {
	mcat, err := metrics.CatalogFor(engine)
	if err != nil {
		return nil
	}
	suffix := "/" + workloadName
	store := r.Store()
	ids := store.Workloads()
	sort.Strings(ids)

	type candidate struct {
		id   string
		mean []float64
		n    int
	}
	var cands []candidate
	var view []*tuner.Sample
	for _, id := range ids {
		if id == excludeID || !strings.HasSuffix(id, suffix) {
			continue
		}
		view = store.View(view[:0], id, knobs.Engine(engine), 0)
		n := len(view)
		if n < minSamples || n == 0 {
			continue
		}
		sum := make([]float64, mcat.Len())
		for _, s := range view {
			for j := range sum {
				sum[j] += s.Metrics.At(j)
			}
		}
		for j := range sum {
			sum[j] /= float64(n)
		}
		cands = append(cands, candidate{id: id, mean: sum, n: n})
	}
	if len(cands) == 0 {
		return nil
	}
	if len(cands) == 1 {
		return []WorkloadMatch{{WorkloadID: cands[0].id, Samples: cands[0].n}}
	}

	rows := make([][]float64, len(cands))
	for i := range cands {
		rows[i] = cands[i].mean
	}
	keep := metrics.Prune(rows, 1e-12, 0.98)
	if len(keep) == 0 {
		keep = []int{0}
	}
	pruned := make([][]float64, len(rows))
	for i, row := range rows {
		pruned[i] = metrics.Project(row, keep)
	}
	binned := metrics.Decile(pruned)
	centroid := make([]float64, len(binned[0]))
	for _, row := range binned {
		for j, v := range row {
			centroid[j] += v
		}
	}
	for j := range centroid {
		centroid[j] /= float64(len(binned))
	}

	out := make([]WorkloadMatch, len(cands))
	for i := range cands {
		out[i] = WorkloadMatch{
			WorkloadID: cands[i].id,
			Distance:   linalg.EuclideanDistance(binned[i], centroid),
			Samples:    cands[i].n,
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Distance != out[j].Distance {
			return out[i].Distance < out[j].Distance
		}
		return out[i].WorkloadID < out[j].WorkloadID
	})
	return out
}

// BestSample returns the donor sample with the highest objective in a
// workload's history (ties toward the earliest), and false when the
// workload has none — the configuration a warm start applies while the
// seeded surrogate takes over. Non-quality samples are deliberately in
// scope: the highest-objective windows are the ones where the donor's
// tuned config kept it out of throttling.
func (r *Repository) BestSample(workloadID string) (tuner.Sample, bool) {
	samples := r.Store().Samples(workloadID)
	best, bestObj := -1, math.Inf(-1)
	for i := range samples {
		if samples[i].Objective > bestObj {
			best, bestObj = i, samples[i].Objective
		}
	}
	if best < 0 {
		return tuner.Sample{}, false
	}
	return samples[best], true
}
