// Package shard is the distributed control plane's shard runtime: the
// contract a cohort of database service instances is driven through —
// step one observation window, add/remove/resize members, emit and
// ingest checkpoint sections, report counters — with two
// implementations. Local extracts today's in-process machinery from
// core.System; Remote speaks a length-prefixed, CRC-framed RPC protocol
// to a worker process (cmd/autodbaas -worker) hosting a Local on the
// far side. A Coordinator partitions the fleet across any mix of the
// two and performs the same deterministic ordered merge across shards
// that core.Step performs across goroutines, so a fixed (seed,
// topology, shard map) produces bit-for-bit the same fleet fingerprint
// whether the fleet runs as one process or N worker processes, clean or
// under fault injection, across worker kill/restore.
//
// Everything crossing the shard boundary is declarative and
// JSON-serializable: instance specs name a workload class instead of
// carrying a live generator, shard configs name a fault profile instead
// of carrying an injector, and rebalancing an instance between shards
// reuses the checkpoint container's "instance/<id>" section as the wire
// format (checkpoint out of one shard, restore into the other,
// resubscribe the repository fan-out — no second serialization format).
package shard

import (
	"fmt"
	"time"

	"autodbaas/internal/core"
	"autodbaas/internal/knobs"
	"autodbaas/internal/repository"
	"autodbaas/internal/safety"
	"autodbaas/internal/tenant"
	"autodbaas/internal/workload"
)

// AgentConfig is the serializable slice of agent.Options a shard can
// rebuild an on-VM tuning agent from.
type AgentConfig struct {
	// TickEveryMin is the TDE execution period in virtual minutes
	// (0: the agent default).
	TickEveryMin int `json:"tick_every_min,omitempty"`
	// GateSamples uploads training samples only on detected throttles.
	GateSamples bool `json:"gate_samples,omitempty"`
	// Periodic switches the agent to the periodic-request baseline; the
	// shard wires its own director as the tuning sink.
	Periodic bool `json:"periodic,omitempty"`
	// PeriodicEveryMin is the periodic request period in virtual
	// minutes (0: the agent default).
	PeriodicEveryMin int `json:"periodic_every_min,omitempty"`
}

// InstanceSpec declares one database service instance. Unlike
// core.InstanceSpec it carries no live objects: the workload is named
// by class and parameters (tenant.WorkloadSpec) and materialized inside
// the owning shard, so the same spec provisions identically in-process
// or across an RPC boundary.
type InstanceSpec struct {
	ID       string              `json:"id"`
	Plan     string              `json:"plan"`
	Engine   string              `json:"engine"` // "postgres" | "mysql"
	Slaves   int                 `json:"slaves,omitempty"`
	Seed     int64               `json:"seed"`
	Workload tenant.WorkloadSpec `json:"workload"`
	Agent    AgentConfig         `json:"agent"`
}

// Validate rejects malformed specs with an error naming the field.
func (sp InstanceSpec) Validate() error {
	_, err := sp.buildWorkload()
	return err
}

// buildWorkload checks the ID and the engine, then builds the workload
// generator: the spec is valid when it returns no error.
func (sp InstanceSpec) buildWorkload() (workload.Generator, error) {
	if sp.ID == "" {
		return nil, fmt.Errorf("shard: instance spec needs an ID")
	}
	switch knobs.Engine(sp.Engine) {
	case knobs.Postgres, knobs.MySQL:
	default:
		return nil, fmt.Errorf("shard: instance %q: unknown engine %q (want postgres|mysql)", sp.ID, sp.Engine)
	}
	gen, err := sp.Workload.Build()
	if err != nil {
		return nil, fmt.Errorf("shard: instance %q: %w", sp.ID, err)
	}
	return gen, nil
}

// TunerConfig declares a shard's tuner pool — enough for a worker
// process to rebuild bit-for-bit the same BO tuners the in-process
// layout would build.
type TunerConfig struct {
	// Count is the number of BO tuner instances (default 1).
	Count int `json:"count,omitempty"`
	// Seed seeds tuner i with Seed+i (default: the shard seed).
	Seed int64 `json:"seed,omitempty"`
	// Engine is the knob catalogue the tuners train on (default
	// postgres).
	Engine string `json:"engine,omitempty"`
	// Candidates and MaxSamplesPerFit bound the BO search (defaults 60
	// and 60); UCBBeta is the acquisition trade-off (default 0.5).
	Candidates       int     `json:"candidates,omitempty"`
	MaxSamplesPerFit int     `json:"max_samples_per_fit,omitempty"`
	UCBBeta          float64 `json:"ucb_beta,omitempty"`
}

// Config declares one shard: its name in the shard map, the root seed,
// the in-shard step parallelism, the tuner pool, and the fault
// profile. It is the payload of the worker "init" RPC — a worker
// restarted after a crash is rebuilt from exactly this value before its
// snapshot is restored into it.
type Config struct {
	Name        string      `json:"name"`
	Seed        int64       `json:"seed"`
	Parallelism int         `json:"parallelism,omitempty"`
	Tuner       TunerConfig `json:"tuner"`
	// FaultProfile names the injection profile ("" disables; zero,
	// light, medium, heavy otherwise); FaultSeed seeds the injector
	// (0: the shard seed).
	FaultProfile string `json:"fault_profile,omitempty"`
	FaultSeed    int64  `json:"fault_seed,omitempty"`
	// Safety, when non-nil, enables the safe-tuning gate inside the
	// shard (internal/safety). JSON-serializable, so a worker process
	// rebuilds the same gate from its "init" RPC.
	Safety *safety.Options `json:"safety,omitempty"`
}

// StepResult is one shard's serializable outcome of stepping a window:
// the shard's window counter after the step, the throttle count, TDE
// event counts by kind, per-instance window P99 latency (what scenario
// SLO tracking is scored on), and per-instance errors (as strings —
// errors cross the RPC boundary by message).
type StepResult struct {
	Window    int                `json:"window"`
	Throttles int                `json:"throttles"`
	Events    map[string]int     `json:"events,omitempty"`
	P99Ms     map[string]float64 `json:"p99_ms,omitempty"`
	Errors    map[string]string  `json:"errors,omitempty"`
}

// Counters is a shard's control-plane counter snapshot.
type Counters struct {
	Windows         int `json:"windows"`
	Instances       int `json:"instances"`
	Generation      int `json:"generation"`
	Samples         int `json:"samples"`
	TuningRequests  int `json:"tuning_requests"`
	Recommendations int `json:"recommendations"`
	ApplyFailures   int `json:"apply_failures"`
	PlanUpgrades    int `json:"plan_upgrades"`
	CircuitSkips    int `json:"circuit_skips"`
	CircuitTrips    int `json:"circuit_trips"`
	Retries         int `json:"retries"`
	Escalations     int `json:"escalations"`

	// Safe-tuning gate totals (zero when the gate is off).
	SafetyVetoes     int `json:"safety_vetoes,omitempty"`
	SafetyCanaryRuns int `json:"safety_canary_runs,omitempty"`
	SafetyRollbacks  int `json:"safety_rollbacks,omitempty"`
	SafetyRegressing int `json:"safety_regressing_applies,omitempty"`

	Repository repository.Stats `json:"repository"`
}

// Accumulate folds another shard's counters into c (fleet totals;
// Generation and Windows accumulate too — the coordinator checks
// per-shard window agreement separately).
func (c *Counters) Accumulate(o Counters) {
	c.Windows += o.Windows
	c.Instances += o.Instances
	c.Generation += o.Generation
	c.Samples += o.Samples
	c.TuningRequests += o.TuningRequests
	c.Recommendations += o.Recommendations
	c.ApplyFailures += o.ApplyFailures
	c.PlanUpgrades += o.PlanUpgrades
	c.CircuitSkips += o.CircuitSkips
	c.CircuitTrips += o.CircuitTrips
	c.Retries += o.Retries
	c.Escalations += o.Escalations
	c.SafetyVetoes += o.SafetyVetoes
	c.SafetyCanaryRuns += o.SafetyCanaryRuns
	c.SafetyRollbacks += o.SafetyRollbacks
	c.SafetyRegressing += o.SafetyRegressing
	c.Repository.Samples += o.Repository.Samples
	c.Repository.Enqueued += o.Repository.Enqueued
	c.Repository.Delivered += o.Repository.Delivered
	c.Repository.Pending += o.Repository.Pending
	c.Repository.Subscribers += o.Repository.Subscribers
}

// Fingerprint is everything the shard-level determinism contract
// covers: the counter snapshot, every member with its join generation,
// each instance's current VM plan, final configuration and monitor
// series length.
type Fingerprint struct {
	Counters      Counters                `json:"counters"`
	Members       []core.Member           `json:"members"`
	Plans         map[string]string       `json:"plans"`
	Configs       map[string]knobs.Config `json:"configs"`
	MonitorPoints map[string]int          `json:"monitor_points"`
}

// InstanceExport is one instance leaving a shard: the declarative spec
// the destination re-provisions from, the "instance/<id>" checkpoint
// section holding its live state, and the topology pin the destination
// validates before restoring.
type InstanceExport struct {
	Spec    InstanceSpec `json:"spec"`
	Meta    InstanceMeta `json:"meta"`
	Section []byte       `json:"section"`
}

// InstanceMeta mirrors checkpoint.InstanceMeta across the RPC boundary.
type InstanceMeta struct {
	ID     string `json:"id"`
	Engine string `json:"engine"`
	Plan   string `json:"plan"`
	Slaves int    `json:"slaves"`
	Gen    int    `json:"gen,omitempty"`
}

// Shard is the runtime contract one cohort of the fleet is driven
// through. The coordinator serializes calls per shard (Step never
// overlaps membership changes on the same shard); distinct shards are
// fully independent and run concurrently.
type Shard interface {
	// Name returns the shard's name in the shard map.
	Name() string
	// AddInstance provisions a member from its declarative spec.
	AddInstance(spec InstanceSpec) error
	// RemoveInstance drains and deprovisions a member.
	RemoveInstance(id string) error
	// ResizeInstance re-provisions a member onto a new VM plan.
	ResizeInstance(id, plan string, seed int64, agentCfg AgentConfig) error
	// Members returns the cohort in onboarding order.
	Members() ([]core.Member, error)
	// Step advances every member one observation window.
	Step(dur time.Duration) (StepResult, error)
	// Counters reports the shard's control-plane counters.
	Counters() (Counters, error)
	// Fingerprint reports the shard's determinism fingerprint.
	Fingerprint() (Fingerprint, error)
	// Checkpoint serializes the shard's entire mutable state.
	Checkpoint() ([]byte, error)
	// Restore loads a Checkpoint into a freshly built shard with the
	// same Config; the cohort is rebuilt from the snapshot itself.
	Restore(snapshot []byte) error
	// ExportInstance checkpoints one member out for migration.
	ExportInstance(id string) (InstanceExport, error)
	// ImportInstance re-provisions an exported member here and restores
	// its state — the other half of a rebalance.
	ImportInstance(exp InstanceExport) error
	// Close releases the shard (a remote shard closes its connection;
	// the worker process survives for the next coordinator).
	Close() error
}
