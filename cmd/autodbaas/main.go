// Command autodbaas runs a complete AutoDBaaS deployment: a simulated
// fleet of database service instances with on-VM tuning agents, a config
// director load-balancing across BO tuner instances, the Data Federation
// Agent, the service orchestrator with its reconciler, and the central
// data repository — with the director and repository additionally served
// over HTTP so external clients can watch the deployment.
//
// Usage:
//
//	autodbaas [-fleet 8] [-hours 24] [-listen 127.0.0.1:8080] [-periodic]
//
// The simulation runs in virtual time (a day of database activity takes
// seconds); the HTTP endpoints report live counters while it runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"autodbaas/internal/agent"
	"autodbaas/internal/cluster"
	"autodbaas/internal/core"
	"autodbaas/internal/httpapi"
	"autodbaas/internal/knobs"
	"autodbaas/internal/workload"
)

func main() {
	fleetN := flag.Int("fleet", 8, "number of database service instances (under -serve: bootstrap databases; 0 starts empty)")
	hours := flag.Int("hours", 24, "simulated hours to run (under -serve: 0 runs until interrupted)")
	listen := flag.String("listen", "127.0.0.1:8080", "HTTP listen address (director + repository; under -serve also the tenant API)")
	tuners := flag.Int("tuners", 3, "tuner instances behind the director")
	periodic := flag.Bool("periodic", false, "use the periodic baseline instead of TDE-driven requests")
	seed := flag.Int64("seed", 1, "PRNG seed")
	parallelism := flag.Int("parallelism", 0, "fleet-step parallelism (0: GOMAXPROCS); results are identical at every level")
	faultsProfile := flag.String("faults", "", "fault-injection profile: zero, light, medium or heavy (empty: no injection)")
	faultSeed := flag.Int64("fault-seed", 0, "fault-injection seed (0: derive from -seed); chaos runs are reproducible from (seed, profile)")
	ckptDir := flag.String("checkpoint-dir", "", "directory for fleet snapshots (empty: checkpointing disabled)")
	ckptEvery := flag.Int("checkpoint-every", 12, "auto-checkpoint every N windows (needs -checkpoint-dir)")
	resume := flag.Bool("resume", false, "restore -checkpoint-dir/latest.ckpt before simulating; all other flags must match the run that wrote it")
	serve := flag.Bool("serve", false, "run the elastic multi-tenant fleet service with its REST control plane instead of a fixed fleet")
	tick := flag.Duration("tick", 0, "wall-clock pause between virtual windows under -serve (0: flat out)")
	worker := flag.Bool("worker", false, "run a shard worker: serve the shard RPC protocol on -listen and wait for a coordinator")
	shards := flag.Int("shards", 0, "split the fleet service across N in-process shards (needs -serve; 0: one in-process deployment)")
	shardMap := flag.String("shard-map", "", "comma-separated name=addr shard workers to coordinate, e.g. s0=127.0.0.1:9001,s1=127.0.0.1:9002 (needs -serve)")
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

	runMode := run
	switch {
	case cfg.Worker:
		runMode = runWorker
	case cfg.Scenario != "":
		runMode = runScenario
	case cfg.Serve:
		runMode = runServe
	}
	if err := runMode(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "autodbaas: %v\n", err)
		os.Exit(1)
	}
}

func run(c cliConfig) error {
	fleet, hours, listen, ckptDir, ckptEvery := c.Fleet, c.Hours, c.Listen, c.CkptDir, c.CkptEvery
	seed, periodic, resume := c.Seed, c.Periodic, c.Resume
	tuners, err := buildTuners(c.Tuners, seed)
	if err != nil {
		return err
	}
	injector, err := buildInjector(c.FaultsProfile, c.FaultSeed, seed)
	if err != nil {
		return err
	}
	sys, err := core.NewSystemWithOptions(core.Options{Parallelism: c.Parallelism, Faults: injector, Safety: safetyOpts(c)}, tuners...)
	if err != nil {
		return err
	}

	mode := agent.ModeTDE
	if periodic {
		mode = agent.ModePeriodic
	}
	plans := []string{"t2.medium", "m4.large", "t2.large", "m4.xlarge"}
	for i := 0; i < fleet; i++ {
		gen := fleetWorkload(i)
		_, err := sys.AddInstance(core.InstanceSpec{
			Provision: cluster.ProvisionSpec{
				ID:          fmt.Sprintf("db-%03d", i),
				Plan:        plans[i%len(plans)],
				Engine:      knobs.Postgres,
				DBSizeBytes: gen.DBSizeBytes(),
				Slaves:      i % 2, // every other instance runs with a replica
				Seed:        seed + int64(i),
			},
			Workload: gen,
			Agent: agent.Options{
				TickEvery:     5 * time.Minute,
				GateSamples:   !periodic,
				Mode:          mode,
				PeriodicEvery: 5 * time.Minute,
			},
		})
		if err != nil {
			return err
		}
	}

	// Snapshot & resume: restore must happen before the first Step, with
	// the system rebuilt above from the same flags that wrote the
	// snapshot (the codec rejects a mismatched topology).
	if resume {
		if err := sys.RestoreLatest(ckptDir); err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		fmt.Printf("resumed from %s at window %d\n", ckptDir, sys.Windows())
	}
	if ckptDir != "" {
		sys.SetAutoCheckpoint(ckptDir, ckptEvery)
	}

	// Serve the director and repository over HTTP while simulating, plus
	// the control plane's own observability surfaces.
	mux := http.NewServeMux()
	mux.Handle("/director/", http.StripPrefix("/director", httpapi.NewDirectorServer(sys.Director)))
	mux.Handle("/repository/", http.StripPrefix("/repository", httpapi.NewRepositoryServer(sys.Repository)))
	if ckptDir != "" {
		ckptSrv := httpapi.NewCheckpointServer(sys, ckptDir)
		mux.Handle("/v1/checkpoint", ckptSrv)
		mux.Handle("/v1/checkpoint/latest", ckptSrv)
	}
	obsHandler := httpapi.NewObsHandler(nil, nil)
	mux.Handle("/metrics", obsHandler)
	mux.Handle("/metrics.json", obsHandler)
	mux.Handle("/debug/", obsHandler)
	l, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		if err := httpapi.Serve(ctx, l, mux); err != nil {
			fmt.Fprintf(os.Stderr, "autodbaas: http: %v\n", err)
		}
	}()
	fmt.Printf("control plane on http://%s  (GET /director/v1/counters, /repository/v1/stats, /metrics, /debug/spans, /debug/pprof/)\n", l.Addr())

	fmt.Printf("simulating %d instances for %d virtual hours (%s mode, parallelism %d)\n",
		fleet, hours, map[bool]string{true: "periodic", false: "tde"}[periodic], sys.Parallelism())
	if injector != nil {
		fmt.Printf("fault injection: profile=%s seed=%d\n", injector.Profile().Name, injector.Seed())
	}
	// Window-based so a resumed run continues where the snapshot left
	// off instead of replaying completed hours.
	throttles := 0
	for w := sys.Windows(); w < hours*12; w++ {
		select {
		case <-ctx.Done():
			fmt.Println("interrupted")
			return nil
		default:
		}
		res := sys.Step(5 * time.Minute)
		throttles += res.Throttles
		if (w+1)%12 == 0 {
			reqs, recs, fails, upgrades := sys.Director.Counters()
			fmt.Printf("hour %02d: throttles=%d tuning-requests=%d recommendations=%d apply-failures=%d plan-upgrades=%d samples=%d\n",
				(w+1)/12-1, throttles, reqs, recs, fails, upgrades, sys.Repository.Len())
			throttles = 0
		}
	}
	if injector != nil {
		fmt.Printf("faults injected: %d total (%s)\n", injector.InjectedTotal(), injector)
	}
	fmt.Println("simulation complete; ctrl-c to stop the HTTP endpoints")
	<-ctx.Done()
	return nil
}

func fleetWorkload(i int) workload.Generator {
	switch i % 5 {
	case 3:
		return workload.NewTPCC(18*workload.GiB, 2000)
	case 4:
		return workload.NewTwitter(16*workload.GiB, 6000)
	default:
		return workload.NewProduction()
	}
}
