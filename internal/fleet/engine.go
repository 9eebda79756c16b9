package fleet

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"autodbaas/internal/checkpoint"
	"autodbaas/internal/core"
	"autodbaas/internal/safety"
	"autodbaas/internal/shard"
)

// engine abstracts where the fleet's cohort is hosted. The reconcile
// loop, status endpoints and snapshot paths speak only this contract,
// so nothing above it assumes a single flat cohort: flatEngine hosts
// everything on one core.System (the classic layout), shardedEngine
// partitions the fleet across a shard.Coordinator — in-process shards,
// RPC workers, or a mix.
type engine interface {
	// AddInstance provisions a member from its declarative spec.
	AddInstance(spec shard.InstanceSpec) error
	// RemoveInstance drains and deprovisions a member.
	RemoveInstance(id string) error
	// ResizeInstance re-provisions a member onto a new VM plan.
	ResizeInstance(id, plan string, seed int64, agentCfg shard.AgentConfig) error
	// Step advances the whole fleet one observation window.
	Step(dur time.Duration) (shard.StepResult, error)
	// Members returns the fleet-wide cohort in onboarding order.
	Members() ([]core.Member, error)
	// FleetSize and Windows report cohort size and completed steps.
	FleetSize() int
	Windows() int
	// Counters and Fingerprint report fleet-wide digests (sharded
	// engines merge across shards).
	Counters() (shard.Counters, error)
	Fingerprint() (shard.Fingerprint, error)
	// Placement names the shard hosting an instance ("" , false on a
	// flat engine).
	Placement(id string) (string, bool)
	// SafetyStatus reports one instance's safe-tuning gate snapshot.
	// ok=false when the gate is off or has never seen the instance.
	// The sharded engine reports no per-database status (the gate
	// lives inside each shard, possibly across an RPC boundary);
	// fleet-wide safety totals still flow through Counters.
	SafetyStatus(id string) (safety.Status, bool)
	// Rebalance migrates an instance between shards; flat engines
	// reject it.
	Rebalance(id, toShard string) error
	// CheckpointTo writes a snapshot file to dir and refreshes
	// dir/latest.ckpt; SetAutoCheckpoint arms snapshots every N steps.
	CheckpointTo(dir string) (string, error)
	SetAutoCheckpoint(dir string, everyN int)
	// Restore loads a snapshot. SelfContainedSnapshots tells the
	// service whether the engine rebuilds its own cohort from the
	// snapshot (sharded) or expects the caller to re-provision it
	// first (flat — the rebuild-then-restore contract).
	Restore(data []byte) error
	SelfContainedSnapshots() bool
	// Close releases the engine's shards (remote connections).
	Close() error
}

// flatEngine hosts the entire cohort on one core.System. All
// conversions go through the shard package's digest path, so a flat
// fleet and a sharded fleet provision and fingerprint identically.
type flatEngine struct {
	sys *core.System
}

func (e *flatEngine) AddInstance(spec shard.InstanceSpec) error {
	cs, err := spec.CoreSpec()
	if err != nil {
		return err
	}
	_, err = e.sys.AddInstance(cs)
	return err
}

func (e *flatEngine) RemoveInstance(id string) error { return e.sys.RemoveInstance(id) }

func (e *flatEngine) ResizeInstance(id, plan string, seed int64, agentCfg shard.AgentConfig) error {
	_, err := e.sys.ResizeInstance(id, plan, seed, agentCfg.Options())
	return err
}

func (e *flatEngine) Step(dur time.Duration) (shard.StepResult, error) {
	res := e.sys.Step(dur)
	return shard.StepDigest(e.sys.Windows(), res), nil
}

func (e *flatEngine) Members() ([]core.Member, error) { return e.sys.Members(), nil }
func (e *flatEngine) FleetSize() int                  { return e.sys.FleetSize() }
func (e *flatEngine) Windows() int                    { return e.sys.Windows() }

func (e *flatEngine) Counters() (shard.Counters, error) {
	return shard.CountersOf(e.sys), nil
}

func (e *flatEngine) Fingerprint() (shard.Fingerprint, error) {
	return shard.FingerprintOf(e.sys), nil
}

func (e *flatEngine) Placement(string) (string, bool) { return "", false }

func (e *flatEngine) SafetyStatus(id string) (safety.Status, bool) {
	return e.sys.Director.SafetyStatus(id)
}

func (e *flatEngine) Rebalance(id, toShard string) error {
	return fmt.Errorf("%w: fleet engine is not sharded; nothing to rebalance %q onto", ErrInvalid, toShard)
}

func (e *flatEngine) CheckpointTo(dir string) (string, error) { return e.sys.CheckpointNow(dir) }
func (e *flatEngine) SetAutoCheckpoint(dir string, everyN int) {
	e.sys.SetAutoCheckpoint(dir, everyN)
}

func (e *flatEngine) Restore(data []byte) error { return e.sys.Restore(bytes.NewReader(data)) }
func (e *flatEngine) SelfContainedSnapshots() bool {
	return false
}
func (e *flatEngine) Close() error { return nil }

// shardedEngine hosts the cohort across a shard.Coordinator. Placement
// is the coordinator's rendezvous hash; snapshots are the coordinator's
// nested fleet containers, which rebuild every shard's cohort on their
// own (each shard snapshot carries its specs section).
type shardedEngine struct {
	coord *shard.Coordinator

	mu        sync.Mutex
	ckptDir   string
	ckptEvery int
}

func (e *shardedEngine) AddInstance(spec shard.InstanceSpec) error {
	return e.coord.AddInstance(spec)
}

func (e *shardedEngine) RemoveInstance(id string) error { return e.coord.RemoveInstance(id) }

func (e *shardedEngine) ResizeInstance(id, plan string, seed int64, agentCfg shard.AgentConfig) error {
	return e.coord.ResizeInstance(id, plan, seed, agentCfg)
}

func (e *shardedEngine) Step(dur time.Duration) (shard.StepResult, error) {
	res, err := e.coord.Step(dur)
	if err != nil {
		return res, err
	}
	e.mu.Lock()
	dir, every := e.ckptDir, e.ckptEvery
	e.mu.Unlock()
	if dir != "" && every > 0 && e.coord.Window()%every == 0 {
		if _, err := e.CheckpointTo(dir); err != nil {
			return res, fmt.Errorf("fleet: auto-checkpoint: %w", err)
		}
	}
	return res, nil
}

func (e *shardedEngine) Members() ([]core.Member, error) { return e.coord.Members() }
func (e *shardedEngine) FleetSize() int                  { return len(e.coord.Instances()) }
func (e *shardedEngine) Windows() int                    { return e.coord.Window() }

func (e *shardedEngine) Counters() (shard.Counters, error) { return e.coord.Counters() }

func (e *shardedEngine) Fingerprint() (shard.Fingerprint, error) {
	fp, err := e.coord.Fingerprint()
	if err != nil {
		return shard.Fingerprint{}, err
	}
	return fp.Merged(), nil
}

func (e *shardedEngine) Placement(id string) (string, bool) { return e.coord.Assignment(id) }

func (e *shardedEngine) SafetyStatus(string) (safety.Status, bool) { return safety.Status{}, false }

func (e *shardedEngine) Rebalance(id, toShard string) error { return e.coord.Rebalance(id, toShard) }

// CheckpointTo saves through checkpoint.SaveFile like
// core.System.CheckpointNow, so both engines share one file layout.
func (e *shardedEngine) CheckpointTo(dir string) (string, error) {
	return checkpoint.SaveFile(dir, e.coord.Window(), e.coord.Checkpoint)
}

func (e *shardedEngine) SetAutoCheckpoint(dir string, everyN int) {
	e.mu.Lock()
	e.ckptDir, e.ckptEvery = dir, everyN
	e.mu.Unlock()
}

func (e *shardedEngine) Restore(data []byte) error {
	return e.coord.Restore(bytes.NewReader(data))
}
func (e *shardedEngine) SelfContainedSnapshots() bool { return true }
func (e *shardedEngine) Close() error                 { return e.coord.Close() }

var (
	_ engine = (*flatEngine)(nil)
	_ engine = (*shardedEngine)(nil)
)
