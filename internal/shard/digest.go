package shard

import (
	"time"

	"autodbaas/internal/agent"
	"autodbaas/internal/cluster"
	"autodbaas/internal/core"
	"autodbaas/internal/knobs"
)

// This file is the single conversion and digest path between the
// declarative shard vocabulary and the live core.System vocabulary.
// Every shard calls through here, in-process or inside a worker, so an
// instance provisioned from the same InstanceSpec — and the counters
// and fingerprints read back — are bit-for-bit identical no matter
// which shard hosts it.

// Options materializes agent.Options from the serializable config. The
// director default for periodic mode is wired inside core.
func (c AgentConfig) Options() agent.Options {
	opts := agent.Options{GateSamples: c.GateSamples}
	if c.TickEveryMin > 0 {
		opts.TickEvery = time.Duration(c.TickEveryMin) * time.Minute
	}
	if c.Periodic {
		opts.Mode = agent.ModePeriodic
		if c.PeriodicEveryMin > 0 {
			opts.PeriodicEvery = time.Duration(c.PeriodicEveryMin) * time.Minute
		}
	}
	return opts
}

// CoreSpec materializes the declarative spec into the live form
// core.System provisions from: the spec is validated as the workload
// generator is built (once), the database size derived, the agent
// options expanded.
func (sp InstanceSpec) CoreSpec() (core.InstanceSpec, error) {
	gen, err := sp.buildWorkload()
	if err != nil {
		return core.InstanceSpec{}, err
	}
	return core.InstanceSpec{
		Provision: cluster.ProvisionSpec{
			ID:          sp.ID,
			Plan:        sp.Plan,
			Engine:      knobs.Engine(sp.Engine),
			DBSizeBytes: gen.DBSizeBytes(),
			Slaves:      sp.Slaves,
			Seed:        sp.Seed,
		},
		Workload: gen,
		Agent:    sp.Agent.Options(),
	}, nil
}

// StepDigest reduces a core step result to the serializable StepResult:
// event counts by kind and errors by message. Raw TDE events stay on
// the shard side of the boundary — they can carry NaN entropy values,
// which JSON cannot.
func StepDigest(window int, res core.StepResult) StepResult {
	out := StepResult{Window: window, Throttles: res.Throttles}
	for id, ws := range res.Windows {
		if out.P99Ms == nil {
			out.P99Ms = make(map[string]float64, len(res.Windows))
		}
		out.P99Ms[id] = ws.P99Ms
	}
	for _, evs := range res.Events {
		for _, ev := range evs {
			if out.Events == nil {
				out.Events = make(map[string]int)
			}
			out.Events[ev.Kind.String()]++
		}
	}
	for id, err := range res.Errors {
		if out.Errors == nil {
			out.Errors = make(map[string]string)
		}
		out.Errors[id] = err.Error()
	}
	return out
}

// CountersOf reads one deployment's control-plane counter snapshot.
func CountersOf(sys *core.System) Counters {
	c := Counters{
		Windows:      sys.Windows(),
		Instances:    sys.FleetSize(),
		Generation:   sys.Generation(),
		Samples:      sys.Repository.Len(),
		CircuitSkips: sys.Director.CircuitSkips(),
		CircuitTrips: sys.Director.CircuitTrips(),
		Retries:      sys.Orchestrator.Retries(),
		Escalations:  sys.Orchestrator.Escalations(),
		Repository:   sys.Repository.Stats(),
	}
	c.TuningRequests, c.Recommendations, c.ApplyFailures, c.PlanUpgrades = sys.Director.Counters()
	vetoes, canaries, rollbacks, regressing := sys.Director.SafetyTotals()
	c.SafetyVetoes = int(vetoes)
	c.SafetyCanaryRuns = int(canaries)
	c.SafetyRollbacks = int(rollbacks)
	c.SafetyRegressing = int(regressing)
	return c
}

// FingerprintOf reads one deployment's determinism fingerprint.
func FingerprintOf(sys *core.System) Fingerprint {
	fp := Fingerprint{
		Counters:      CountersOf(sys),
		Members:       sys.Members(),
		Plans:         make(map[string]string),
		Configs:       make(map[string]knobs.Config),
		MonitorPoints: make(map[string]int),
	}
	for _, a := range sys.Agents() {
		id := a.Instance().ID
		fp.Plans[id] = a.Instance().Plan.Name
		fp.Configs[id] = a.Instance().Replica.Master().Config()
		if m, ok := sys.Monitor(id); ok {
			fp.MonitorPoints[id] = m.Series("disk_latency_ms").Len()
		}
	}
	return fp
}
