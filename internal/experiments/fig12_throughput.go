package experiments

import (
	"fmt"
	"time"

	"autodbaas/internal/agent"
	"autodbaas/internal/knobs"
	"autodbaas/internal/shard"
	"autodbaas/internal/tenant"
	"autodbaas/internal/tuner"
	"autodbaas/internal/tuner/bo"
	"autodbaas/internal/tuner/rl"
	"autodbaas/internal/workload"
)

// ThroughputResult holds the with/without-TDE throughput comparison of
// Figs. 12 (BO tuner) and 13 (RL tuner).
type ThroughputResult struct {
	TunerName string
	Engine    knobs.Engine
	// Plain is the hourly average throughput of the measured database
	// with the tuner ingesting every production sample (corruption-prone).
	Plain Series
	// WithTDE is the same with TDE-gated high-quality samples only.
	WithTDE Series
}

// Fig12ThroughputBO reproduces Fig. 12: the average hourly throughput of
// a live production database tuned by an OtterTune-style BO tuner,
// with and without the TDE sample gate. The tuner bootstraps from
// offline workloads; a batch of production databases hooks in first and
// floods the (ungated) tuner with low-quality samples; the measured
// database (the paper's "40th instance") joins afterwards.
//
// Paper shape: initially both variants perform alike (offline samples
// dominate); once production samples accumulate, the ungated tuner's
// GPR is corrupted and its recommendations degrade, while the TDE-gated
// variant sustains higher throughput.
func Fig12ThroughputBO(engine knobs.Engine, prodDBs, warmupHours, measureHours int, seed int64) ThroughputResult {
	mk := func() tuner.Tuner {
		bt, err := bo.New(bo.Options{Engine: engine, Candidates: 150, MaxSamplesPerFit: 100, UCBBeta: 0.3, Seed: seed})
		if err != nil {
			panic(fmt.Sprintf("fig12: %v", err))
		}
		return bt
	}
	res := ThroughputResult{TunerName: "ottertune-bo", Engine: engine}
	res.Plain = throughputRun(engine, mk(), false, prodDBs, warmupHours, measureHours, seed)
	res.Plain.Name = "ottertune"
	res.WithTDE = throughputRun(engine, mk(), true, prodDBs, warmupHours, measureHours, seed)
	res.WithTDE.Name = "ottertune+tde"
	return res
}

// Fig13ThroughputRL reproduces Fig. 13: the same comparison with a
// CDBTune-style RL tuner. CDBTune barely uses offline experience, so the
// corruption shows "directly from the first hooked database": the
// measured database is the first one connected.
func Fig13ThroughputRL(engine knobs.Engine, prodDBs, warmupHours, measureHours int, seed int64) ThroughputResult {
	mk := func() tuner.Tuner {
		rt, err := rl.New(rl.DefaultOptions(engine))
		if err != nil {
			panic(fmt.Sprintf("fig13: %v", err))
		}
		return rt
	}
	res := ThroughputResult{TunerName: "cdbtune-rl", Engine: engine}
	res.Plain = throughputRun(engine, mk(), false, prodDBs, 0, warmupHours+measureHours, seed)
	res.Plain.Name = "cdbtune"
	res.WithTDE = throughputRun(engine, mk(), true, prodDBs, 0, warmupHours+measureHours, seed)
	res.WithTDE.Name = "cdbtune+tde"
	return res
}

// throughputRun builds the fleet, warms up, joins the measured DB and
// records its hourly mean throughput.
func throughputRun(engine knobs.Engine, tn tuner.Tuner, gated bool, prodDBs, warmupHours, measureHours int, seed int64) Series {
	d := newDeployment("throughput run", shard.Config{}, nil, tn)
	// Offline bootstrap: high-quality samples from the standard suites.
	if _, ok := tn.(*bo.Tuner); ok {
		bootstrapOfflineEngine(d.System().Repository, engine, seed, 10)
	}
	agentCfg := shard.AgentConfig{TickEveryMin: 5, GateSamples: gated}
	if !gated {
		// Without the TDE the deployment follows the classic periodic
		// request policy.
		agentCfg = shard.AgentConfig{TickEveryMin: 5, Periodic: true, PeriodicEveryMin: 10}
	}
	add := func(id string, s int64) {
		d.add(shard.InstanceSpec{
			ID: id, Plan: "m4.large", Engine: string(engine), Seed: s,
			Workload: tenant.WorkloadSpec{Class: "production"},
			Agent:    agentCfg,
		})
	}
	for i := 0; i < prodDBs; i++ {
		add(fmt.Sprintf("prod-%02d", i), seed+int64(i))
	}
	d.run(12 * warmupHours)
	add("measured", seed+999)
	// The step digest carries no throughput, so the measured windows
	// step the shard's system and read it from the full result.
	sys := d.System()
	s := Series{}
	for h := 0; h < measureHours; h++ {
		var sum float64
		for w := 0; w < 12; w++ {
			sum += sys.Step(5 * time.Minute).Windows["measured"].Achieved
		}
		s.Points = append(s.Points, Point{X: float64(h), Y: sum / 12})
	}
	return s
}

// bootstrapOfflineEngine uploads offline samples for either engine.
func bootstrapOfflineEngine(sink agent.SampleSink, engine knobs.Engine, seed int64, perWorkload int) {
	if engine == knobs.Postgres {
		bootstrapOffline(sink, seed, perWorkload,
			workload.NewTPCC(22*workload.GiB, 3300),
			workload.NewYCSB(18*workload.GiB, 5000),
			workload.NewWikipedia(12*workload.GiB, 1000),
			workload.NewTwitter(16*workload.GiB, 10000),
		)
		return
	}
	bootstrapOfflineMySQL(sink, seed, perWorkload)
}

// Render renders the comparison.
func (r ThroughputResult) Render() string {
	title := fmt.Sprintf("Fig. 12 — Hourly throughput with %s (%s)", r.TunerName, r.Engine)
	if r.TunerName == "cdbtune-rl" {
		title = fmt.Sprintf("Fig. 13 — Hourly throughput with %s (%s)", r.TunerName, r.Engine)
	}
	return RenderSeries(title, r.Plain, r.WithTDE)
}
