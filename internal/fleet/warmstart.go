package fleet

import (
	"fmt"

	"autodbaas/internal/knobs"
	"autodbaas/internal/obs"
	"autodbaas/internal/tenant"
)

// Fleet-wide warm starts: instead of every new database service
// starting its tuner cold, the reconciler queries the central data
// repository for instances that ran the same workload kind, picks the
// most representative donor by the paper's workload-mapping distance
// (repository.SimilarWorkloads), and
//
//  1. seeds the new instance's workload with the donor's recent
//     history — re-labelled samples flow through the normal repository
//     fan-out, so every subscribed tuner trains on them exactly as if
//     the new instance had uploaded them; and
//  2. applies the donor's best-objective configuration as the starting
//     point (core.System.SeedConfig), budget-fitted to the new plan —
//     so the first observation windows run on a known-good config
//     instead of engine defaults.
//
// Everything happens inside the reconcile pass, in its sorted
// deterministic order, and the seeded samples drain through the same
// Flush barrier every dispatch already waits on — warm starts keep the
// fleet's bit-for-bit determinism contract at every parallelism level.
// The feature is opt-in (Config.WarmStart nil keeps every existing
// timeline byte-identical) and needs the fleet to be exactly one
// in-process shard: several shards partition the repository, so a
// fleet-scope donor query has no single store to ask.

// WarmStartConfig tunes the fleet warm-start policy.
type WarmStartConfig struct {
	// MinDonorSamples is the least history a donor workload must have
	// to be considered (default 6).
	MinDonorSamples int
	// MaxSeedSamples caps how many donor samples are re-labelled into
	// the new workload, most recent first (default 32).
	MaxSeedSamples int
}

func (w *WarmStartConfig) minDonorSamples() int {
	if w.MinDonorSamples <= 0 {
		return 6
	}
	return w.MinDonorSamples
}

func (w *WarmStartConfig) maxSeedSamples() int {
	if w.MaxSeedSamples <= 0 {
		return 32
	}
	return w.MaxSeedSamples
}

// warmStartMetrics are the warm-start observability counters.
type warmStartMetrics struct {
	hits   *obs.Counter
	misses *obs.Counter
	seeded *obs.Counter
}

func newWarmStartMetrics(r *obs.Registry) warmStartMetrics {
	return warmStartMetrics{
		hits:   r.Counter("autodbaas_tuner_warmstart_hits", "Provisions warm-started from a workload-similar donor's history."),
		misses: r.Counter("autodbaas_tuner_warmstart_misses", "Provisions that started cold: no usable donor in the repository."),
		seeded: r.Counter("autodbaas_tuner_warmstart_samples_seeded", "Donor samples re-labelled into new workloads by warm starts."),
	}
}

// warmStartLocked runs the warm-start policy for one freshly
// (re-)provisioned database. Callers hold s.mu. Failures to apply the
// donor config are swallowed (the instance is provisioned and the
// seeded history still helps); only hit/miss accounting is exact.
func (s *Service) warmStartLocked(id string, bp tenant.Blueprint) error {
	ws := s.cfg.WarmStart
	if ws == nil {
		return nil
	}
	sys := s.local.System() // New admits warm starts only on one in-process shard
	gen, err := bp.Workload.Build()
	if err != nil {
		return fmt.Errorf("fleet: warm start %s: %w", id, err)
	}
	target := id + "/" + gen.Name()
	repo := sys.Repository
	if len(repo.Store().Samples(target)) > 0 {
		// Resize or rejoin: the workload keeps its own history across
		// re-provisions, which beats any donor's.
		return nil
	}
	matches := repo.SimilarWorkloads(string(bp.Engine), gen.Name(), target, ws.minDonorSamples())
	if len(matches) == 0 {
		s.warmMisses++
		s.m.warmstart.misses.Inc()
		return nil
	}
	donor := matches[0]
	samples := repo.Store().Samples(donor.WorkloadID)
	if max := ws.maxSeedSamples(); len(samples) > max {
		samples = samples[len(samples)-max:]
	}
	seeded := int64(0)
	for _, smp := range samples {
		smp.WorkloadID = target
		if err := repo.Observe(smp); err != nil {
			return fmt.Errorf("fleet: warm start %s from %s: %w", id, donor.WorkloadID, err)
		}
		seeded++
	}
	s.warmHits++
	s.warmSeeded += seeded
	s.m.warmstart.hits.Inc()
	s.m.warmstart.seeded.Add(float64(seeded))
	if best, ok := repo.BestSample(donor.WorkloadID); ok {
		kcat, err := knobs.CatalogFor(best.Engine)
		if err != nil {
			return fmt.Errorf("fleet: warm start %s from %s: %w", id, donor.WorkloadID, err)
		}
		// Best-effort: a chaos-injected apply failure must not fail the
		// provision.
		_ = sys.SeedConfig(id, kcat.Config(best.Config))
	}
	return nil
}

// WarmStartCounts returns the lifecycle warm-start totals (hits,
// misses, samples seeded).
func (s *Service) WarmStartCounts() (hits, misses, seeded int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.warmHits, s.warmMisses, s.warmSeeded
}
