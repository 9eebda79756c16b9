package experiments

import (
	"fmt"
	"time"

	"autodbaas/internal/knobs"
	"autodbaas/internal/simdb"
	"autodbaas/internal/tde"
	"autodbaas/internal/tuner"
	"autodbaas/internal/tuner/bo"
	"autodbaas/internal/workload"
)

// This file holds the ablation harnesses DESIGN.md calls out: each
// isolates one design choice of the AutoDBaaS architecture and measures
// what removing or sweeping it costs.

// AblationEntropyResult compares throttle handling with the entropy
// filter's consecutive-run rule at different thresholds.
type AblationEntropyResult struct {
	// Rows: one per threshold value.
	Rows []AblationEntropyRow
}

// AblationEntropyRow is one threshold's outcome.
type AblationEntropyRow struct {
	ConsecutiveThreshold int
	// Forwarded throttles reached the config director (tuner load).
	Forwarded int
	// Upgrades are plan-upgrade conversions (suppressed tuner load).
	Upgrades int
}

// AblationEntropyFilter sweeps the 8-consecutive-throttle threshold on
// an at-cap, evenly-mixed workload. Small thresholds convert the
// throttle stream into plan-upgrade signals quickly (less tuner load);
// large ones keep hammering the tuner with unfixable requests.
func AblationEntropyFilter(thresholds []int, ticks int, seed int64) AblationEntropyResult {
	var out AblationEntropyResult
	for _, th := range thresholds {
		eng, err := simdb.NewEngine(simdb.Options{
			Engine:      knobs.Postgres,
			Resources:   simdb.Resources{MemoryBytes: 8 * workload.GiB, VCPU: 2, DiskIOPS: 3000, DiskSSD: true},
			DBSizeBytes: 21 * workload.GiB,
			Seed:        seed,
		})
		if err != nil {
			panic(fmt.Sprintf("ablation entropy: %v", err))
		}
		// Working memory near the instance cap: throttles are unfixable.
		if err := eng.ApplyConfig(knobs.Config{"work_mem": 860 * 1024 * 1024}, simdb.ApplyReload); err != nil {
			panic(fmt.Sprintf("ablation entropy: %v", err))
		}
		cfg := tde.DefaultConfig()
		cfg.Seed = seed
		td, err := tde.NewWithThreshold(eng, cfg, nil, th)
		if err != nil {
			panic(fmt.Sprintf("ablation entropy: %v", err))
		}
		gen := workload.NewAdulteratedTPCC(21*workload.GiB, 3000, 0.9)
		row := AblationEntropyRow{ConsecutiveThreshold: th}
		for w := 0; w < ticks; w++ {
			if _, err := eng.RunWindow(gen, 5*time.Minute); err != nil {
				panic(fmt.Sprintf("ablation entropy: %v", err))
			}
			for _, ev := range td.Tick() {
				switch {
				case ev.Kind == tde.KindThrottle && ev.Class == knobs.Memory:
					row.Forwarded++
				case ev.Kind == tde.KindPlanUpgrade:
					row.Upgrades++
				}
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// Render renders the sweep.
func (r AblationEntropyResult) Render() string {
	t := Table{
		Title:   "Ablation — entropy-filter consecutive-throttle threshold",
		Columns: []string{"threshold", "forwarded throttles", "plan upgrades"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", row.ConsecutiveThreshold),
			fmt.Sprintf("%d", row.Forwarded),
			fmt.Sprintf("%d", row.Upgrades),
		})
	}
	return t.Render()
}

// AblationMappingResult compares BO recommendation quality with and
// without OtterTune's workload mapping (experience transfer).
type AblationMappingResult struct {
	// Objectives after applying the recommendation (qps).
	WithMapping    float64
	WithoutMapping float64
	// Baseline is the target workload's default-config throughput.
	Baseline float64
}

// AblationWorkloadMapping trains a tuner with rich samples of a *donor*
// workload plus a handful of target-workload samples, then compares
// recommendations with mapping on vs off. With mapping, the donor
// experience transfers; without, the GP has only the thin target set.
func AblationWorkloadMapping(seed int64) AblationMappingResult {
	donor := workload.NewTPCH(24*workload.GiB, 2)
	target := workload.NewCHBench(24*workload.GiB, 2000)
	mk := func(disable bool) *bo.Tuner {
		t, err := bo.New(bo.Options{
			Engine: knobs.Postgres, Candidates: 400, UCBBeta: 0.3,
			MaxSamplesPerFit: 200, DisableMapping: disable, Seed: seed,
		})
		if err != nil {
			panic(fmt.Sprintf("ablation mapping: %v", err))
		}
		// Rich donor experience, thin target experience.
		repo := subscribe(t)
		bootstrapOffline(repo, seed, 24, donor)
		bootstrapOffline(repo, seed+1, 4, target)
		return t
	}
	probe := offlineSample(knobs.Postgres, target, knobs.Config{}, seed+99)
	probeCfg, probeMetrics, err := probe.Maps()
	if err != nil {
		panic(fmt.Sprintf("ablation mapping: %v", err))
	}
	run := func(tn *bo.Tuner) float64 {
		rec, err := tn.Recommend(tuner.Request{
			Engine: knobs.Postgres, WorkloadID: "offline/" + target.Name(),
			Metrics: probeMetrics, Current: probeCfg,
			MemoryBytes: offlineResources().MemoryBytes,
		})
		if err != nil {
			panic(fmt.Sprintf("ablation mapping: %v", err))
		}
		return offlineSample(knobs.Postgres, target, rec.Config, seed+99).Objective
	}
	return AblationMappingResult{
		WithMapping:    run(mk(false)),
		WithoutMapping: run(mk(true)),
		Baseline:       probe.Objective,
	}
}

// Render renders the comparison.
func (r AblationMappingResult) Render() string {
	t := Table{
		Title:   "Ablation — workload mapping (experience transfer)",
		Columns: []string{"variant", "throughput (qps)"},
	}
	t.Rows = append(t.Rows,
		[]string{"default config", fmt.Sprintf("%.2f", r.Baseline)},
		[]string{"mapping on", fmt.Sprintf("%.2f", r.WithMapping)},
		[]string{"mapping off", fmt.Sprintf("%.2f", r.WithoutMapping)},
	)
	return t.Render()
}

// AblationSplitDisksResult compares data-disk pressure with and without
// the §3.2 split-disk layout (WAL/stats/log writers on a second device).
type AblationSplitDisksResult struct {
	SharedIOPS, SplitIOPS             float64
	SharedWriteLatMs, SplitWriteLatMs float64
}

// AblationSplitDisks measures TPCC on m4.large with both disk layouts.
func AblationSplitDisks(minutes int, seed int64) AblationSplitDisksResult {
	run := func(split bool) (float64, float64) {
		res := simdb.Resources{MemoryBytes: 8 * workload.GiB, VCPU: 2, DiskIOPS: 3000, DiskSSD: true, SplitDisks: split}
		eng, err := simdb.NewEngine(simdb.Options{
			Engine: knobs.Postgres, Resources: res,
			DBSizeBytes: 26 * workload.GiB, Seed: seed,
		})
		if err != nil {
			panic(fmt.Sprintf("ablation split: %v", err))
		}
		gen := workload.NewTPCC(26*workload.GiB, 3300)
		var iops, wlat float64
		n := minutes * 2
		for i := 0; i < n; i++ {
			st, err := eng.RunWindow(gen, 30*time.Second)
			if err != nil {
				panic(fmt.Sprintf("ablation split: %v", err))
			}
			iops += st.IOPS
			wlat += st.DiskWriteLatencyMs
		}
		return iops / float64(n), wlat / float64(n)
	}
	var out AblationSplitDisksResult
	out.SharedIOPS, out.SharedWriteLatMs = run(false)
	out.SplitIOPS, out.SplitWriteLatMs = run(true)
	return out
}

// Render renders the comparison.
func (r AblationSplitDisksResult) Render() string {
	t := Table{
		Title:   "Ablation — split-disk layout for write attribution",
		Columns: []string{"layout", "data-disk IOPS", "write latency (ms)"},
	}
	t.Rows = append(t.Rows,
		[]string{"shared", fmt.Sprintf("%.0f", r.SharedIOPS), fmt.Sprintf("%.2f", r.SharedWriteLatMs)},
		[]string{"split", fmt.Sprintf("%.0f", r.SplitIOPS), fmt.Sprintf("%.2f", r.SplitWriteLatMs)},
	)
	return t.Render()
}
