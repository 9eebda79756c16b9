// Quickstart: provision one PostgreSQL service instance, attach a
// spill-prone workload, and let AutoDBaaS detect throttles and tune the
// knobs. Prints the throttle/tuning activity and the throughput before
// and after tuning.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"autodbaas/internal/knobs"
	"autodbaas/internal/shard"
	"autodbaas/internal/tenant"
	"autodbaas/internal/tuner/bo"
)

func main() {
	// 1. A BO (OtterTune-style) tuner instance, with exploration kept
	//    modest so recommendations converge instead of probing.
	opts := bo.DefaultOptions(knobs.Postgres)
	opts.UCBBeta = 0.3
	tn, err := bo.New(opts)
	if err != nil {
		log.Fatal(err)
	}

	// 2. The AutoDBaaS control plane — orchestrator, DFA, director,
	//    central data repository, all wired per Figure 1 of the paper —
	//    as one in-process shard, the unit every fleet is built from.
	l, err := shard.NewLocalWith(shard.Config{Name: "quickstart"}, nil, tn)
	if err != nil {
		log.Fatal(err)
	}

	// 3. One customer database: 21 GB of TPCC with a sprinkling (5%) of
	//    the memory-hungry query families of §3.1 — complex sorts and
	//    aggregations, index DDL, temp-table analytics — on an m4.xlarge.
	//    Under the default 4 MB work_mem every one of those spills to
	//    disk, so the database runs far below its potential.
	err = l.AddInstance(shard.InstanceSpec{
		ID:       "customer-db",
		Plan:     "m4.xlarge",
		Engine:   "postgres",
		Seed:     42,
		Workload: tenant.WorkloadSpec{Class: "adulterated-tpcc", SizeGiB: 21, Rate: 3000, Mix: 0.05},
		Agent: shard.AgentConfig{
			TickEveryMin: 5,    // TDE cadence
			GateSamples:  true, // only high-quality samples train the tuner
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// 4. Run six simulated hours; the TDE raises throttles, the director
	//    asks the tuner, the DFA applies recommendations slave-first.
	//    Stepping the shard's system directly exposes each window's
	//    throughput and latency, which the shard's step digest omits.
	sys := l.System()
	fmt.Println("hour  throughput(qps)  avg-latency(ms)  throttles  tuning-reqs")
	for h := 0; h < 6; h++ {
		var qps, lat float64
		var throttles int
		for w := 0; w < 12; w++ {
			res := sys.Step(5 * time.Minute)
			qps += res.Windows["customer-db"].Achieved
			lat += res.Windows["customer-db"].AvgServiceMs
			throttles += res.Throttles
		}
		k, err := l.Counters()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%4d  %15.1f  %15.1f  %9d  %11d\n", h, qps/12, lat/12, throttles, k.TuningRequests)
	}

	// 5. Inspect what the tuner changed.
	a, _ := sys.Agent("customer-db")
	final := a.Instance().Replica.Master().Config()
	fmt.Println("\nfinal knob values (changed from defaults):")
	kcat := knobs.PostgresCatalog()
	defaults := kcat.DefaultConfig()
	for _, name := range kcat.Names() {
		if final[name] != defaults[name] {
			fmt.Printf("  %-32s %14.0f  (default %.0f)\n", name, final[name], defaults[name])
		}
	}
	fmt.Printf("\nTDE throttle counts by class: %v\n", a.TDE().Throttles())
}
