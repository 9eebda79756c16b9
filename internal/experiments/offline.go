package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"autodbaas/internal/agent"
	"autodbaas/internal/knobs"
	"autodbaas/internal/metrics"
	"autodbaas/internal/repository"
	"autodbaas/internal/simdb"
	"autodbaas/internal/tuner"
	"autodbaas/internal/tuner/bo"
	"autodbaas/internal/workload"
)

// offlineResources is the measurement host used for offline training
// runs (m4.xlarge).
func offlineResources() simdb.Resources {
	return simdb.Resources{MemoryBytes: 16 * workload.GiB, VCPU: 4, DiskIOPS: 6000, DiskSSD: true}
}

// subscribe binds a standalone BO tuner to a fresh central repository,
// which holds the samples the tuner trains on. Callers Flush the
// repository before the tuner reads.
func subscribe(bt *bo.Tuner) *repository.Repository {
	repo := repository.New()
	repo.Subscribe(bt)
	return repo
}

// bootstrapOffline uploads random-config PostgreSQL samples of the
// given workloads to sink (the paper's offline bootstrap phase, where
// "there is no chance of training model corruption with offline
// workloads").
func bootstrapOffline(sink agent.SampleSink, seed int64, perWorkload int, gens ...workload.Generator) {
	bootstrapOfflineFor(sink, knobs.Postgres, seed, perWorkload, gens...)
}

// bootstrapOfflineMySQL is the MySQL flavour with the standard suites.
func bootstrapOfflineMySQL(sink agent.SampleSink, seed int64, perWorkload int) {
	bootstrapOfflineFor(sink, knobs.MySQL, seed, perWorkload,
		workload.NewTPCC(22*workload.GiB, 3300),
		workload.NewYCSB(18*workload.GiB, 5000),
		workload.NewWikipedia(12*workload.GiB, 1000),
		workload.NewTwitter(16*workload.GiB, 10000),
	)
}

func bootstrapOfflineFor(sink agent.SampleSink, engine knobs.Engine, seed int64, perWorkload int, gens ...workload.Generator) {
	kcat, err := knobs.CatalogFor(engine)
	if err != nil {
		panic(fmt.Sprintf("offline bootstrap: %v", err))
	}
	rng := rand.New(rand.NewSource(seed))
	names := kcat.TunableNames()
	for gi, gen := range gens {
		for i := 0; i < perWorkload; i++ {
			vec := make([]float64, len(names))
			for d := range vec {
				vec[d] = rng.Float64()
			}
			cfg := kcat.Denormalize(vec, names)
			s := offlineSample(engine, gen, cfg, seed+int64(gi*1000+i))
			_ = sink.Observe(s)
		}
	}
}

// offlineSample executes one offline measurement run: fresh engine,
// apply the candidate config (shrunk into budget when needed), execute
// three one-minute windows and capture the delta metrics + objective.
func offlineSample(engine knobs.Engine, gen workload.Generator, cfg knobs.Config, seed int64) tuner.Sample {
	mk := func() *simdb.Engine {
		eng, err := simdb.NewEngine(simdb.Options{
			Engine:      engine,
			Resources:   offlineResources(),
			DBSizeBytes: gen.DBSizeBytes(),
			Seed:        seed,
		})
		if err != nil {
			panic(fmt.Sprintf("offline sample: %v", err))
		}
		return eng
	}
	// Offline benchmarking drives the database to saturation (as
	// OLTP-Bench does), so the objective reflects the configuration's
	// capacity rather than the offered rate — without this, samples are
	// offered-bound and carry no knob signal for ranking or the GP.
	sat := workload.FixedRate{Generator: gen, Rate: 1e9}
	mcat, err := metrics.CatalogFor(string(engine))
	if err != nil {
		panic(fmt.Sprintf("offline sample: %v", err))
	}
	eng := mk()
	if err := eng.ApplyConfig(cfg, simdb.ApplyReload); err != nil {
		// Budget-violating random draws: shrink and retry on a fresh
		// process (the first one OOMed).
		fitted := eng.KnobCatalog().FitMemoryBudget(cfg, knobs.MemoryBudget{
			TotalBytes: offlineResources().MemoryBytes, WorkMemSessions: 8,
		})
		eng = mk()
		if err := eng.ApplyConfig(fitted, simdb.ApplyReload); err != nil {
			panic(fmt.Sprintf("offline sample: fitted config rejected: %v", err))
		}
	}
	before := eng.Snapshot()
	var last simdb.WindowStats
	for i := 0; i < 3; i++ {
		st, err := eng.RunWindow(sat, time.Minute)
		if err != nil {
			panic(fmt.Sprintf("offline sample: %v", err))
		}
		last = st
	}
	return tuner.Sample{
		WorkloadID: "offline/" + gen.Name(),
		Engine:     engine,
		Config:     eng.ConfigVector(),
		Metrics:    mcat.Delta(before, eng.Snapshot()),
		Objective:  last.Achieved,
		Quality:    true,
		Window:     3 * time.Minute,
		At:         eng.Now(),
	}
}
