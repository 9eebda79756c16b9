package main

import (
	"strings"
	"testing"
	"time"
)

// defaults mirrors the flag defaults main registers.
func defaults() cliConfig {
	return cliConfig{
		Fleet: 8, Hours: 24, Listen: "127.0.0.1:8080", Tuners: 3,
		Seed: 1, CkptEvery: 12,
	}
}

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*cliConfig)
		set     []string // flags explicitly provided
		wantErr string   // substring; empty means valid
	}{
		{name: "defaults", mutate: func(c *cliConfig) {}},
		{
			name:    "resume without checkpoint dir",
			mutate:  func(c *cliConfig) { c.Resume = true },
			set:     []string{"resume"},
			wantErr: "-resume needs -checkpoint-dir",
		},
		{
			name:   "resume with checkpoint dir",
			mutate: func(c *cliConfig) { c.Resume = true; c.CkptDir = "/tmp/ckpt" },
			set:    []string{"resume", "checkpoint-dir"},
		},
		{
			name:    "checkpoint-every without dir",
			mutate:  func(c *cliConfig) { c.CkptEvery = 6 },
			set:     []string{"checkpoint-every"},
			wantErr: "-checkpoint-every needs -checkpoint-dir",
		},
		{
			name:   "default checkpoint-every without dir is fine",
			mutate: func(c *cliConfig) {},
			set:    []string{},
		},
		{
			name:    "non-positive checkpoint cadence",
			mutate:  func(c *cliConfig) { c.CkptDir = "/tmp/ckpt"; c.CkptEvery = 0 },
			set:     []string{"checkpoint-dir", "checkpoint-every"},
			wantErr: "-checkpoint-every must be positive",
		},
		{
			name:    "fault seed without profile",
			mutate:  func(c *cliConfig) { c.FaultSeed = 9 },
			set:     []string{"fault-seed"},
			wantErr: "-fault-seed needs -faults",
		},
		{
			name:   "fault seed with profile",
			mutate: func(c *cliConfig) { c.FaultSeed = 9; c.FaultsProfile = "medium" },
			set:    []string{"fault-seed", "faults"},
		},
		{
			name:    "unknown fault profile",
			mutate:  func(c *cliConfig) { c.FaultsProfile = "catastrophic" },
			set:     []string{"faults"},
			wantErr: "unknown profile",
		},
		{
			name:   "serve with periodic",
			mutate: func(c *cliConfig) { c.Serve = true; c.Periodic = true },
			set:    []string{"serve", "periodic"},
		},
		{
			name:   "tick without serve",
			mutate: func(c *cliConfig) { c.Tick = time.Second },
			set:    []string{"tick"},
		},
		{
			name:    "negative tick",
			mutate:  func(c *cliConfig) { c.Tick = -time.Second },
			set:     []string{"tick"},
			wantErr: "-tick cannot be negative",
		},
		{
			name:   "tick with serve",
			mutate: func(c *cliConfig) { c.Serve = true; c.Tick = time.Second },
			set:    []string{"serve", "tick"},
		},
		{
			name:    "zero tuners",
			mutate:  func(c *cliConfig) { c.Tuners = 0 },
			set:     []string{"tuners"},
			wantErr: "-tuners must be at least 1",
		},
		{
			name:    "negative fleet",
			mutate:  func(c *cliConfig) { c.Fleet = -1 },
			set:     []string{"fleet"},
			wantErr: "-fleet cannot be negative",
		},
		{
			name:   "zero hours in fixed mode",
			mutate: func(c *cliConfig) { c.Hours = 0 },
			set:    []string{"hours"},
		},
		{
			name:    "negative hours",
			mutate:  func(c *cliConfig) { c.Hours = -1 },
			set:     []string{"hours"},
			wantErr: "-hours cannot be negative",
		},
		{
			name:   "zero hours under serve runs forever",
			mutate: func(c *cliConfig) { c.Serve = true; c.Hours = 0 },
			set:    []string{"serve", "hours"},
		},
		{
			name:    "negative parallelism",
			mutate:  func(c *cliConfig) { c.Parallelism = -2 },
			set:     []string{"parallelism"},
			wantErr: "-parallelism cannot be negative",
		},
		{
			name:   "bare worker",
			mutate: func(c *cliConfig) { c.Worker = true },
			set:    []string{"worker", "listen"},
		},
		{
			name:    "worker with simulation flags",
			mutate:  func(c *cliConfig) { c.Worker = true; c.Seed = 7 },
			set:     []string{"worker", "seed"},
			wantErr: "-seed conflicts with -worker",
		},
		{
			name:    "worker with serve",
			mutate:  func(c *cliConfig) { c.Worker = true; c.Serve = true },
			set:     []string{"worker", "serve"},
			wantErr: "-serve conflicts with -worker",
		},
		{
			name:   "shards without serve",
			mutate: func(c *cliConfig) { c.Shards = 2 },
			set:    []string{"shards"},
		},
		{
			name:   "shards with serve",
			mutate: func(c *cliConfig) { c.Serve = true; c.Shards = 2 },
			set:    []string{"serve", "shards"},
		},
		{
			name:    "negative shards",
			mutate:  func(c *cliConfig) { c.Serve = true; c.Shards = -1 },
			set:     []string{"serve", "shards"},
			wantErr: "-shards cannot be negative",
		},
		{
			name:   "shard map without serve",
			mutate: func(c *cliConfig) { c.ShardMap = "s0=127.0.0.1:9001" },
			set:    []string{"shard-map"},
		},
		{
			name:   "shard map with serve",
			mutate: func(c *cliConfig) { c.Serve = true; c.ShardMap = "s0=127.0.0.1:9001,s1=127.0.0.1:9002" },
			set:    []string{"serve", "shard-map"},
		},
		{
			name: "shards conflicts with shard map",
			mutate: func(c *cliConfig) {
				c.Serve = true
				c.Shards = 2
				c.ShardMap = "s0=127.0.0.1:9001"
			},
			set:     []string{"serve", "shards", "shard-map"},
			wantErr: "-shards conflicts with -shard-map",
		},
		{
			name:    "malformed shard map",
			mutate:  func(c *cliConfig) { c.Serve = true; c.ShardMap = "s0:9001" },
			set:     []string{"serve", "shard-map"},
			wantErr: "not name=addr",
		},
		{
			name:    "duplicate shard name",
			mutate:  func(c *cliConfig) { c.Serve = true; c.ShardMap = "s0=a:1,s0=b:2" },
			set:     []string{"serve", "shard-map"},
			wantErr: "twice",
		},
		{
			name:   "bare scenario",
			mutate: func(c *cliConfig) { c.Scenario = "diurnal" },
			set:    []string{"scenario"},
		},
		{
			name:   "scenario with pacing and serve",
			mutate: func(c *cliConfig) { c.Scenario = "diurnal"; c.TimeScale = 120; c.Serve = true },
			set:    []string{"scenario", "time-scale", "serve"},
		},
		{
			name:   "scenario with fault override",
			mutate: func(c *cliConfig) { c.Scenario = "diurnal"; c.FaultsProfile = "medium" },
			set:    []string{"scenario", "faults"},
		},
		{
			name:    "scenario with bad fault override",
			mutate:  func(c *cliConfig) { c.Scenario = "diurnal"; c.FaultsProfile = "apocalyptic" },
			set:     []string{"scenario", "faults"},
			wantErr: "unknown profile",
		},
		{
			name:    "scenario with seed",
			mutate:  func(c *cliConfig) { c.Scenario = "diurnal"; c.Seed = 7 },
			set:     []string{"scenario", "seed"},
			wantErr: "-seed conflicts with -scenario",
		},
		{
			name:    "scenario with fleet",
			mutate:  func(c *cliConfig) { c.Scenario = "diurnal"; c.Fleet = 4 },
			set:     []string{"scenario", "fleet"},
			wantErr: "-fleet conflicts with -scenario",
		},
		{
			name:    "scenario with hours",
			mutate:  func(c *cliConfig) { c.Scenario = "diurnal"; c.Hours = 6 },
			set:     []string{"scenario", "hours"},
			wantErr: "-hours conflicts with -scenario",
		},
		{
			name:    "scenario with resume",
			mutate:  func(c *cliConfig) { c.Scenario = "diurnal"; c.Resume = true },
			set:     []string{"scenario", "resume"},
			wantErr: "-resume conflicts with -scenario",
		},
		{
			name:    "scenario with shards",
			mutate:  func(c *cliConfig) { c.Scenario = "diurnal"; c.Serve = true; c.Shards = 2 },
			set:     []string{"scenario", "serve", "shards"},
			wantErr: "-shards conflicts with -scenario",
		},
		{
			name:    "scenario with tick",
			mutate:  func(c *cliConfig) { c.Scenario = "diurnal"; c.Serve = true; c.Tick = time.Second },
			set:     []string{"scenario", "serve", "tick"},
			wantErr: "-tick conflicts with -scenario",
		},
		{
			name:    "negative time scale",
			mutate:  func(c *cliConfig) { c.Scenario = "diurnal"; c.TimeScale = -1 },
			set:     []string{"scenario", "time-scale"},
			wantErr: "-time-scale cannot be negative",
		},
		{
			name:    "time scale without scenario",
			mutate:  func(c *cliConfig) { c.TimeScale = 120 },
			set:     []string{"time-scale"},
			wantErr: "-time-scale needs -scenario",
		},
		{
			name:    "timeline out without scenario",
			mutate:  func(c *cliConfig) { c.TimelineOut = "/tmp/tl" },
			set:     []string{"timeline-out"},
			wantErr: "-timeline-out needs -scenario",
		},
		{
			name:    "worker with scenario",
			mutate:  func(c *cliConfig) { c.Worker = true; c.Scenario = "diurnal" },
			set:     []string{"worker", "scenario"},
			wantErr: "-scenario conflicts with -worker",
		},
		{
			name:    "worker with safety",
			mutate:  func(c *cliConfig) { c.Worker = true; c.Safety = true },
			set:     []string{"worker", "safety"},
			wantErr: "-safety conflicts with -worker",
		},
		{
			name:   "safety with scenario",
			mutate: func(c *cliConfig) { c.Scenario = "tuning-regression"; c.Safety = true },
			set:    []string{"scenario", "safety"},
		},
		{
			name:   "safety with serve",
			mutate: func(c *cliConfig) { c.Serve = true; c.Safety = true },
			set:    []string{"serve", "safety"},
		},
		{
			name:   "safety in fixed-fleet mode",
			mutate: func(c *cliConfig) { c.Safety = true },
			set:    []string{"safety"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := defaults()
			tc.mutate(&c)
			explicit := map[string]bool{}
			for _, n := range tc.set {
				explicit[n] = true
			}
			err := validateFlags(c, func(name string) bool { return explicit[name] })
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestParseShardMap(t *testing.T) {
	entries, err := parseShardMap(" s0=127.0.0.1:9001, s1=unix:/tmp/w1.sock ,")
	if err != nil {
		t.Fatal(err)
	}
	want := []shardMapEntry{
		{Name: "s0", Addr: "127.0.0.1:9001"},
		{Name: "s1", Addr: "unix:/tmp/w1.sock"},
	}
	if len(entries) != len(want) {
		t.Fatalf("entries = %v, want %v", entries, want)
	}
	for i := range want {
		if entries[i] != want[i] {
			t.Fatalf("entry %d = %v, want %v", i, entries[i], want[i])
		}
	}
	if _, err := parseShardMap(",,"); err == nil {
		t.Fatal("empty map accepted")
	}
	if _, err := parseShardMap("=addr"); err == nil {
		t.Fatal("nameless entry accepted")
	}
	if _, err := parseShardMap("s0="); err == nil {
		t.Fatal("addrless entry accepted")
	}
}
