// Command autodbaas runs a complete AutoDBaaS deployment: an elastic,
// multi-tenant fleet of simulated database service instances with
// on-VM tuning agents, a config director load-balancing across BO tuner
// instances, the Data Federation Agent, the service orchestrator with
// its reconciler, and the central data repository — all behind one
// fleet service whose REST control plane, snapshots and metrics are
// served over HTTP while the fleet runs.
//
// Usage:
//
//	autodbaas [-fleet 8] [-hours 24] [-listen 127.0.0.1:8080] [-periodic]
//	          [-shards N | -shard-map s0=addr,...] [-checkpoint-dir DIR [-resume]]
//	autodbaas -worker -listen ADDR
//	autodbaas -scenario NAME|FILE [-serve] [-time-scale X]
//
// The simulation runs in virtual time (a day of database activity takes
// seconds); the HTTP endpoints report live counters while it runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
)

func main() {
	fleetN := flag.Int("fleet", 8, "bootstrap databases on the fleet service (0 starts empty)")
	hours := flag.Int("hours", 24, "simulated hours to run (0: until interrupted)")
	listen := flag.String("listen", "127.0.0.1:8080", "HTTP listen address (tenant API, snapshots, metrics); under -worker the shard RPC address")
	tuners := flag.Int("tuners", 3, "tuner instances behind the director")
	periodic := flag.Bool("periodic", false, "use the periodic baseline instead of TDE-driven requests on every blueprint")
	seed := flag.Int64("seed", 1, "PRNG seed")
	parallelism := flag.Int("parallelism", 0, "fleet-step parallelism (0: GOMAXPROCS); results are identical at every level")
	faultsProfile := flag.String("faults", "", "fault-injection profile: zero, light, medium or heavy (empty: no injection)")
	faultSeed := flag.Int64("fault-seed", 0, "fault-injection seed (0: derive from -seed); chaos runs are reproducible from (seed, profile)")
	ckptDir := flag.String("checkpoint-dir", "", "directory for fleet snapshots (empty: checkpointing disabled)")
	ckptEvery := flag.Int("checkpoint-every", 12, "auto-checkpoint every N windows (needs -checkpoint-dir)")
	resume := flag.Bool("resume", false, "restore -checkpoint-dir/latest.ckpt before simulating; all other flags must match the run that wrote it")
	serve := flag.Bool("serve", false, "with -scenario, serve the replayed fleet read-only over HTTP; otherwise accepted and ignored (the fleet service always serves)")
	tick := flag.Duration("tick", 0, "wall-clock pause between virtual windows (0: flat out)")
	worker := flag.Bool("worker", false, "run a shard worker: serve the shard RPC protocol on -listen and wait for a coordinator")
	shards := flag.Int("shards", 0, "split the fleet service across N in-process shards (0: one in-process shard)")
	shardMap := flag.String("shard-map", "", "comma-separated name=addr shard workers to coordinate, e.g. s0=127.0.0.1:9001,s1=127.0.0.1:9002")
	scenarioFlag := flag.String("scenario", "", "replay a scenario: a YAML file path or a library name (see scenarios/); with -serve the fleet is also served read-only over HTTP")
	timeScale := flag.Float64("time-scale", 0, "virtual seconds per wall second for -scenario (0: flat out; 120 replays 24h in 12 minutes)")
	timelineOut := flag.String("timeline-out", "", "directory for the -scenario timeline artifacts (<name>.csv and <name>.json)")
	safetyFlag := flag.Bool("safety", false, "arm the safe-tuning gate: shadow canary, trust region and automatic rollback in front of every tuning apply")
	flag.Parse()

	cfg := cliConfig{
		Fleet: *fleetN, Hours: *hours, Listen: *listen, Tuners: *tuners,
		Periodic: *periodic, Seed: *seed, Parallelism: *parallelism,
		FaultsProfile: *faultsProfile, FaultSeed: *faultSeed,
		CkptDir: *ckptDir, CkptEvery: *ckptEvery, Resume: *resume,
		Serve: *serve, Tick: *tick,
		Worker: *worker, Shards: *shards, ShardMap: *shardMap,
		Scenario: *scenarioFlag, TimeScale: *timeScale, TimelineOut: *timelineOut,
		Safety: *safetyFlag,
	}
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if err := validateFlags(cfg, func(name string) bool { return explicit[name] }); err != nil {
		fmt.Fprintf(os.Stderr, "autodbaas: %v\n", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var err error
	switch {
	case cfg.Worker:
		err = runWorker(ctx, cfg)
	case cfg.Scenario != "":
		err = runScenario(ctx, cfg)
	default:
		var l net.Listener
		if l, err = net.Listen("tcp", cfg.Listen); err == nil {
			err = runFleet(ctx, cfg, l)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "autodbaas: %v\n", err)
		os.Exit(1)
	}
}
