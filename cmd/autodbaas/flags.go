package main

import (
	"fmt"
	"strings"
	"time"

	"autodbaas/internal/faults"
)

// cliConfig is the parsed command line; validateFlags checks it as a
// whole before anything is built, so incompatible combinations fail
// fast with one clear error instead of surfacing mid-run.
type cliConfig struct {
	Fleet       int
	Hours       int
	Listen      string
	Tuners      int
	Periodic    bool
	Seed        int64
	Parallelism int

	FaultsProfile string
	FaultSeed     int64

	CkptDir   string
	CkptEvery int
	Resume    bool

	Serve bool
	Tick  time.Duration

	Worker   bool
	Shards   int
	ShardMap string

	Scenario    string
	TimeScale   float64
	TimelineOut string

	Safety bool
}

// shardMapEntry is one "name=addr" pair from -shard-map, in flag
// order. The order is load-bearing: it fixes the coordinator's shard
// map, which is part of the determinism contract.
type shardMapEntry struct {
	Name string
	Addr string
}

// parseShardMap splits "s0=host:port,s1=host:port" into ordered
// entries, rejecting duplicates and malformed pairs.
func parseShardMap(s string) ([]shardMapEntry, error) {
	seen := make(map[string]bool)
	var out []shardMapEntry
	for _, pair := range strings.Split(s, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, addr, ok := strings.Cut(pair, "=")
		if !ok || name == "" || addr == "" {
			return nil, fmt.Errorf("-shard-map entry %q is not name=addr", pair)
		}
		if seen[name] {
			return nil, fmt.Errorf("-shard-map names shard %q twice", name)
		}
		seen[name] = true
		out = append(out, shardMapEntry{Name: name, Addr: addr})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-shard-map is empty")
	}
	return out, nil
}

// validateFlags cross-checks the flag set. isSet reports whether the
// named flag was explicitly provided (distinguishing a default from a
// deliberate choice, so "-checkpoint-every 12" without a directory is
// rejected while the bare default passes).
func validateFlags(c cliConfig, isSet func(string) bool) error {
	if c.Worker {
		// A worker is a blank shard host: its shard (seed, tuners,
		// faults, instances) arrives from the coordinator over RPC, so
		// every simulation flag is meaningless here.
		for _, name := range []string{
			"fleet", "hours", "tuners", "periodic", "seed", "parallelism",
			"faults", "fault-seed", "checkpoint-dir", "checkpoint-every",
			"resume", "serve", "tick", "shards", "shard-map",
			"scenario", "time-scale", "timeline-out", "safety",
		} {
			if isSet(name) {
				return fmt.Errorf("-%s conflicts with -worker: the worker's shard is configured by the coordinator over RPC", name)
			}
		}
		return nil
	}
	if c.Scenario != "" {
		// A scenario replay owns the schedule end to end: its file fixes
		// the seed, duration, fleet contents and fault profile (the
		// -faults flag still overrides the profile for sweeps), so every
		// flag that would fight the file is rejected.
		for _, name := range []string{
			"fleet", "hours", "periodic", "seed", "fault-seed",
			"checkpoint-dir", "checkpoint-every", "resume",
			"tick", "shards", "shard-map",
		} {
			if isSet(name) {
				return fmt.Errorf("-%s conflicts with -scenario: the scenario file fixes the schedule (use -time-scale to pace it)", name)
			}
		}
		if c.TimeScale < 0 {
			return fmt.Errorf("-time-scale cannot be negative (got %v)", c.TimeScale)
		}
		if c.Tuners < 1 {
			return fmt.Errorf("-tuners must be at least 1 (got %d)", c.Tuners)
		}
		if c.Parallelism < 0 {
			return fmt.Errorf("-parallelism cannot be negative (got %d)", c.Parallelism)
		}
		if c.FaultsProfile != "" {
			if _, err := faults.ParseProfile(c.FaultsProfile); err != nil {
				return err
			}
		}
		return nil
	}
	if isSet("time-scale") {
		return fmt.Errorf("-time-scale needs -scenario: nothing is being replayed")
	}
	if isSet("timeline-out") {
		return fmt.Errorf("-timeline-out needs -scenario: there is no timeline to write")
	}
	if c.Shards < 0 {
		return fmt.Errorf("-shards cannot be negative (got %d)", c.Shards)
	}
	if c.Shards > 0 && c.ShardMap != "" {
		return fmt.Errorf("-shards conflicts with -shard-map: pick in-process shards or remote workers, not both")
	}
	if c.ShardMap != "" {
		if _, err := parseShardMap(c.ShardMap); err != nil {
			return err
		}
	}
	if c.Tuners < 1 {
		return fmt.Errorf("-tuners must be at least 1 (got %d)", c.Tuners)
	}
	if c.Fleet < 0 {
		return fmt.Errorf("-fleet cannot be negative (got %d)", c.Fleet)
	}
	if c.Hours < 0 {
		return fmt.Errorf("-hours cannot be negative (got %d; 0 runs until interrupted)", c.Hours)
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("-parallelism cannot be negative (got %d)", c.Parallelism)
	}

	if c.Resume && c.CkptDir == "" {
		return fmt.Errorf("-resume needs -checkpoint-dir: there is no snapshot directory to restore from")
	}
	if isSet("checkpoint-every") && c.CkptDir == "" {
		return fmt.Errorf("-checkpoint-every needs -checkpoint-dir: snapshots have nowhere to go")
	}
	if c.CkptDir != "" && c.CkptEvery <= 0 {
		return fmt.Errorf("-checkpoint-every must be positive with -checkpoint-dir (got %d)", c.CkptEvery)
	}

	if isSet("fault-seed") && c.FaultsProfile == "" {
		return fmt.Errorf("-fault-seed needs -faults: no injection profile is enabled")
	}
	if c.FaultsProfile != "" {
		if _, err := faults.ParseProfile(c.FaultsProfile); err != nil {
			return err
		}
	}

	if c.Tick < 0 {
		return fmt.Errorf("-tick cannot be negative (got %s)", c.Tick)
	}
	return nil
}
