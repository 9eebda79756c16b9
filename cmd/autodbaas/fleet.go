package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"autodbaas/internal/fleet"
	"autodbaas/internal/httpapi"
	"autodbaas/internal/safety"
	"autodbaas/internal/shard"
	"autodbaas/internal/tenant"
)

// safetyOpts returns the gate options implied by -safety (nil when off).
func safetyOpts(c cliConfig) *safety.Options {
	if !c.Safety {
		return nil
	}
	o := safety.DefaultOptions()
	return &o
}

// seedBlueprints are the postgres templates the -fleet bootstrap cycles
// through (the shared tuners are postgres-trained).
var seedBlueprints = []string{"pg-oltp-small", "pg-web", "pg-production"}

// seedFleet declares -fleet databases across as many "default-NN"
// tenants as the standard tier's quota requires; the first reconcile
// tick provisions them all.
func seedFleet(svc *fleet.Service, n int) error {
	perTenant := tenant.DefaultTiers()["standard"].MaxInstances
	for i := 0; i < n; i++ {
		tid := fmt.Sprintf("default-%02d", i/perTenant)
		if i%perTenant == 0 {
			if err := svc.CreateTenant(tenant.Tenant{ID: tid, Name: "bootstrap fleet", Tier: "standard"}); err != nil {
				return err
			}
		}
		spec := fleet.DatabaseSpec{ID: fmt.Sprintf("db-%03d", i), Blueprint: seedBlueprints[i%len(seedBlueprints)]}
		if err := svc.CreateDatabase(tid, spec); err != nil {
			return err
		}
	}
	return nil
}

// shardConfig derives one shard's config from the command line: the
// -tuners BO pool, the -faults profile and the -safety gate. The default
// layout's lone shard (idx < 0) runs on -seed itself. The shards of a
// multi-shard layout spread it so they simulate decorrelated streams,
// yet the whole layout stays a pure function of (flags, shard index) —
// the determinism contract for multi-process runs.
func shardConfig(name string, idx int, c cliConfig) shard.Config {
	seed, tunerSeed := c.Seed, c.Seed
	if idx >= 0 {
		seed, tunerSeed = c.Seed+int64(idx+1)*1_000_003, c.Seed+int64(idx+1)*7
	}
	return shard.Config{
		Name:        name,
		Seed:        seed,
		Parallelism: c.Parallelism,
		Tuner: shard.TunerConfig{
			Count:            c.Tuners,
			Seed:             tunerSeed,
			Engine:           "postgres",
			Candidates:       200,
			MaxSamplesPerFit: 150,
			UCBBeta:          0.5,
		},
		FaultProfile: c.FaultsProfile,
		FaultSeed:    c.FaultSeed,
		Safety:       safetyOpts(c),
	}
}

// buildShardHosts dials every -shard-map worker in flag order and
// pushes its derived shard config; the returned hosts are handed to
// the fleet service, which owns them from then on.
func buildShardHosts(c cliConfig) ([]shard.Shard, error) {
	entries, err := parseShardMap(c.ShardMap)
	if err != nil {
		return nil, err
	}
	hosts := make([]shard.Shard, 0, len(entries))
	closeAll := func() {
		for _, h := range hosts {
			h.Close()
		}
	}
	for i, e := range entries {
		network, addr := "tcp", e.Addr
		if rest, ok := strings.CutPrefix(addr, "unix:"); ok {
			network, addr = "unix", rest
		}
		r, err := shard.Dial(network, addr)
		if err != nil {
			closeAll()
			return nil, err
		}
		if err := r.Init(shardConfig(e.Name, i, c)); err != nil {
			r.Close()
			closeAll()
			return nil, fmt.Errorf("init shard %q at %s: %w", e.Name, e.Addr, err)
		}
		hosts = append(hosts, r)
	}
	return hosts, nil
}

// fleetConfig assembles the fleet service's config from the command
// line. Every layout is built from shard configs: the default is one
// in-process shard named fleet.LocalShard, -shards splits the fleet
// across in-process shards, and -shard-map dials one worker process per
// shard. -periodic switches every catalogue blueprint to the periodic
// baseline, which the agent config of every layout carries.
func fleetConfig(c cliConfig) (fleet.Config, error) {
	fcfg := fleet.Config{Seed: c.Seed}
	if c.Periodic {
		fcfg.Blueprints = tenant.DefaultBlueprints()
		for name, bp := range fcfg.Blueprints {
			bp.Mode = "periodic"
			fcfg.Blueprints[name] = bp
		}
	}
	switch {
	case c.ShardMap != "":
		hosts, err := buildShardHosts(c)
		if err != nil {
			return fleet.Config{}, err
		}
		fcfg.ShardHosts = hosts
	case c.Shards > 0:
		for i := 0; i < c.Shards; i++ {
			fcfg.Shards = append(fcfg.Shards, shardConfig(fmt.Sprintf("s%d", i), i, c))
		}
	default:
		fcfg.Shards = []shard.Config{shardConfig(fleet.LocalShard, -1, c)}
	}
	return fcfg, nil
}

// runFleet is every run that is not -worker or -scenario: an elastic
// fleet service, bootstrapped with -fleet databases or resumed from
// -checkpoint-dir, steps one 5-minute window at a time for -hours (0:
// until ctx ends) while l serves its REST control plane, snapshots and
// observability. Tenants and databases come and go through the HTTP API
// as it runs. runFleet returns when ctx ends, and closes l.
func runFleet(ctx context.Context, c cliConfig, l net.Listener) error {
	defer l.Close()
	fcfg, err := fleetConfig(c)
	if err != nil {
		return err
	}
	svc, err := fleet.New(fcfg)
	if err != nil {
		return err
	}
	defer svc.Close()

	if c.Resume {
		if err := svc.RestoreLatest(c.CkptDir); err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		fmt.Printf("resumed from %s at window %d (%d instances, %d tenants)\n",
			c.CkptDir, svc.Windows(), svc.Summary().Instances, svc.Summary().Tenants)
	} else if c.Fleet > 0 {
		if err := seedFleet(svc, c.Fleet); err != nil {
			return err
		}
	}
	if c.CkptDir != "" {
		svc.SetAutoCheckpoint(c.CkptDir, c.CkptEvery)
	}

	mux := http.NewServeMux()
	mux.Handle("/", httpapi.NewFleetServer(svc))
	if c.CkptDir != "" {
		ckptSrv := httpapi.NewCheckpointServer(svc, c.CkptDir)
		mux.Handle("/v1/checkpoint", ckptSrv)
		mux.Handle("/v1/checkpoint/latest", ckptSrv)
	}
	obsHandler := httpapi.NewObsHandler(nil, nil)
	mux.Handle("/metrics", obsHandler)
	mux.Handle("/metrics.json", obsHandler)
	mux.Handle("/debug/", obsHandler)

	// The server stops before the fleet closes (defers run last-in,
	// first-out), so no request reaches a closed service.
	serveCtx, stopServing := context.WithCancel(ctx)
	served := make(chan error, 1)
	go func() { served <- httpapi.Serve(serveCtx, l, mux) }()
	defer func() {
		stopServing()
		if err := <-served; err != nil {
			fmt.Fprintf(os.Stderr, "autodbaas: http: %v\n", err)
		}
	}()
	fmt.Printf("fleet service on http://%s  (/v1/tenants, /v1/fleet, /v1/tiers, /v1/blueprints, /metrics, /debug/)\n", l.Addr())
	if c.FaultsProfile != "" {
		fmt.Printf("fault injection: profile=%s\n", c.FaultsProfile)
	}
	layout := fmt.Sprintf("%d shards", len(svc.Coordinator().ShardNames()))
	if c.ShardMap == "" && c.Shards == 0 {
		layout = "one in-process shard"
	}
	mode := "tde"
	if c.Periodic {
		mode = "periodic"
	}
	if c.Hours > 0 {
		fmt.Printf("running for %d virtual hours (%s mode, %s)\n", c.Hours, mode, layout)
	} else {
		fmt.Printf("running until interrupted (%s mode, %s)\n", mode, layout)
	}

	throttles := 0
	for w := svc.Windows(); c.Hours == 0 || w < c.Hours*12; w++ {
		if ctx.Err() != nil {
			fmt.Println("interrupted")
			return nil
		}
		res, err := svc.Step(5 * time.Minute)
		if err != nil {
			return err
		}
		throttles += res.Throttles
		if (w+1)%12 == 0 {
			k, err := svc.Counters()
			if err != nil {
				return err
			}
			fmt.Printf("hour %02d: instances=%d throttles=%d tuning-requests=%d recommendations=%d apply-failures=%d plan-upgrades=%d samples=%d\n",
				(w+1)/12-1, k.Instances, throttles, k.TuningRequests, k.Recommendations, k.ApplyFailures, k.PlanUpgrades, k.Samples)
			throttles = 0
		}
		if c.Tick > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(c.Tick):
			}
		}
	}
	fmt.Println("virtual hours exhausted; ctrl-c to stop the HTTP endpoints")
	<-ctx.Done()
	return nil
}
