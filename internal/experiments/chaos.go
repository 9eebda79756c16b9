package experiments

import (
	"fmt"
	"sort"
	"strings"

	"autodbaas/internal/faults"
	"autodbaas/internal/knobs"
	"autodbaas/internal/shard"
	"autodbaas/internal/tenant"
	"autodbaas/internal/tuner/bo"
)

// ChaosResult reports a chaos soak: the same fleet run clean and under a
// fault profile, with the hardening counters that explain how the
// control plane absorbed the injected failures.
type ChaosResult struct {
	Profile     string
	Seed        int64
	Fleet       int
	Hours       int
	Parallelism int

	CleanThrottles int
	FaultThrottles int

	Injected    map[string]int64
	Total       int64
	Retries     int
	Escalations int
	Reconciles  int
	Trips       int
	Skips       int
	Redelivered int64
	Deduped     int64
	Reordered   int64
	DownNodes   int
}

// ChaosSoak runs the fleet twice — clean, then under the named fault
// profile with the same seeds — and reports throttle inflation alongside
// the hardening counters. The chaos run ends with a quiesce phase
// (injection disabled, two extra hours) so recovery is part of the
// verdict: DownNodes counts nodes still down after it.
func ChaosSoak(fleet, hours, parallelism int, seed int64, profile string) ChaosResult {
	prof, err := faults.ParseProfile(profile)
	if err != nil {
		panic(fmt.Sprintf("chaos: %v", err))
	}
	res := ChaosResult{
		Profile: prof.Name, Seed: seed,
		Fleet: fleet, Hours: hours, Parallelism: parallelism,
	}
	res.CleanThrottles, _, _ = chaosRun(fleet, hours, parallelism, seed, nil)

	in := faults.New(seed, prof)
	faultThrottles, d, down := chaosRun(fleet, hours, parallelism, seed, in)
	res.FaultThrottles = faultThrottles
	res.Injected = in.Counts()
	res.Total = in.InjectedTotal()
	k := d.counters()
	res.Retries, res.Escalations = k.Retries, k.Escalations
	res.Trips, res.Skips = k.CircuitTrips, k.CircuitSkips
	// The shard's counters carry no reconcile or fan-out fault totals.
	sys := d.System()
	res.Reconciles = sys.Orchestrator.Reconciliations()
	res.Redelivered, res.Deduped, res.Reordered = sys.Repository.FaultStats()
	res.DownNodes = down
	return res
}

// chaosRun executes one fleet soak and returns (throttles, deployment,
// nodes still down after the quiesce phase).
func chaosRun(fleet, hours, parallelism int, seed int64, in *faults.Injector) (int, deployment, int) {
	bt, err := bo.New(bo.Options{Engine: knobs.Postgres, Candidates: 60, MaxSamplesPerFit: 60, UCBBeta: 0.5, Seed: seed})
	if err != nil {
		panic(fmt.Sprintf("chaos: %v", err))
	}
	d := newDeployment("chaos", shard.Config{Parallelism: parallelism}, in, bt)
	plans := []string{"t2.medium", "m4.large", "t2.large", "m4.xlarge"}
	for i := 0; i < fleet; i++ {
		d.add(shard.InstanceSpec{
			ID:       fmt.Sprintf("db-%03d", i),
			Plan:     plans[i%len(plans)],
			Engine:   "postgres",
			Slaves:   i % 2,
			Seed:     seed + int64(i),
			Workload: chaosWorkload(i),
			Agent:    shard.AgentConfig{TickEveryMin: 5, GateSamples: true},
		})
	}
	throttles := d.run(hours * 12)
	// Quiesce: stop injecting and give the reconciler room to repair
	// whatever chaos left behind.
	in.Disable()
	d.run(2 * 12)
	down := 0
	for _, a := range d.System().Agents() {
		for _, node := range a.Instance().Replica.Nodes() {
			if node.Down() {
				down++
			}
		}
	}
	return throttles, d, down
}

func chaosWorkload(i int) tenant.WorkloadSpec {
	switch i % 5 {
	case 3:
		return tenant.WorkloadSpec{Class: "tpcc", SizeGiB: 12, Rate: 1500}
	case 4:
		return tenant.WorkloadSpec{Class: "ycsb", SizeGiB: 10, Rate: 2000}
	default:
		return tenant.WorkloadSpec{Class: "production"}
	}
}

// Render formats the soak report.
func (r ChaosResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos soak — %d instances, %d virtual hours, profile=%s seed=%d parallelism=%d\n",
		r.Fleet, r.Hours, r.Profile, r.Seed, r.Parallelism)
	fmt.Fprintf(&b, "throttles: clean=%d faults=%d\n", r.CleanThrottles, r.FaultThrottles)
	kinds := make([]string, 0, len(r.Injected))
	for k := range r.Injected {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Fprintf(&b, "injected: total=%d\n", r.Total)
	for _, k := range kinds {
		fmt.Fprintf(&b, "  %-16s %d\n", k, r.Injected[k])
	}
	fmt.Fprintf(&b, "hardening: retries=%d escalations=%d reconciliations=%d circuit-trips=%d circuit-skips=%d\n",
		r.Retries, r.Escalations, r.Reconciles, r.Trips, r.Skips)
	fmt.Fprintf(&b, "fanout: redelivered=%d deduped=%d reordered=%d\n", r.Redelivered, r.Deduped, r.Reordered)
	fmt.Fprintf(&b, "nodes still down after quiesce: %d\n", r.DownNodes)
	return b.String()
}
