package scenario

import (
	"context"
	"fmt"
	"sync"
	"time"

	"autodbaas/internal/fleet"
	"autodbaas/internal/obs"
	"autodbaas/internal/safety"
	"autodbaas/internal/shard"
	"autodbaas/internal/tenant"
)

// RunConfig selects the layout a compiled plan replays on. The layout
// is orthogonal to the scenario: the same plan runs on one shard at any
// parallelism or across several, and the determinism tests hold the
// timeline identical across parallelism levels and multi-shard layouts
// run-over-run.
type RunConfig struct {
	// Parallelism is the default one-shard layout's step worker bound
	// (ignored when Shards is set).
	Parallelism int
	// Tuners is the default one-shard layout's BO pool size (default 1).
	Tuners int
	// Shards replaces the default layout with one in-process shard per
	// config. Shard seeds/tuners come from the configs; the scenario's
	// fault profile is filled into any config that names none.
	Shards []shard.Config
	// FaultProfile overrides the scenario's profile ("" keeps it;
	// "zero" forces a clean run with injection plumbing active).
	FaultProfile string
	// TimeScale paces the replay: virtual seconds per wall second
	// (e.g. 120 replays a 24h scenario in 12 wall minutes). 0 runs
	// flat out.
	TimeScale float64
	// WarmStart turns on fleet warm starts: new instances seed their
	// tuner history and starting config from workload-similar donors
	// already in the repository. The fleet must be exactly one shard —
	// a multi-shard layout with WarmStart set fails fleet validation.
	WarmStart bool
	// Safety arms the safe-tuning gate (default options): shadow canary
	// plus trust region in front of every apply, automatic rollback
	// behind it. The options are filled into any shard config that
	// doesn't set its own.
	Safety bool
}

// Status is the runner's live snapshot, served at GET /v1/scenario.
type Status struct {
	Scenario      string  `json:"scenario"`
	Window        int     `json:"window"`
	Windows       int     `json:"windows"`
	VirtualMin    int     `json:"virtual_min"`
	Tenants       int     `json:"tenants"`
	Instances     int     `json:"instances"`
	Throttles     int     `json:"throttles_total"`
	SLOViolations int     `json:"slo_violations_total"`
	ActionsDone   int     `json:"actions_applied"`
	ActionsTotal  int     `json:"actions_total"`
	TimeScale     float64 `json:"time_scale,omitempty"`
	Done          bool    `json:"done"`
	Error         string  `json:"error,omitempty"`
}

// Runner replays one compiled plan against a fleet service.
type Runner struct {
	plan *Plan
	cfg  RunConfig
	svc  *fleet.Service

	mu     sync.Mutex
	status Status

	m scenarioMetrics
}

type scenarioMetrics struct {
	window    *obs.Gauge
	throttles *obs.Counter
	sloViol   *obs.Counter
	actions   *obs.Counter
}

func newScenarioMetrics(r *obs.Registry) scenarioMetrics {
	return scenarioMetrics{
		window:    r.Gauge("autodbaas_scenario_window", "Current window index of the running scenario replay."),
		throttles: r.Counter("autodbaas_scenario_throttles_total", "Throttles observed by the scenario replay."),
		sloViol:   r.Counter("autodbaas_scenario_slo_violations_total", "Instance-windows over the scenario's P99 SLO."),
		actions:   r.Counter("autodbaas_scenario_actions_total", "Schedule actions applied by the scenario replay."),
	}
}

// NewRunner builds the fleet service a plan replays on. Every seed
// derives from the scenario seed, so (scenario file, RunConfig layout)
// fully determines the outcome.
func NewRunner(p *Plan, cfg RunConfig) (*Runner, error) {
	sc := p.Scenario
	profile := sc.FaultProfile
	if cfg.FaultProfile != "" {
		profile = cfg.FaultProfile
	}
	faultSeed := sc.FaultSeed
	if faultSeed == 0 {
		faultSeed = sc.Seed
	}

	fcfg := fleet.Config{Seed: sc.Seed, Tiers: p.Tiers, Blueprints: p.Blueprints}
	if cfg.WarmStart {
		// Donor history is thin early in a replay (one sample per
		// window per instance) — a couple of windows is enough to beat
		// a cold start, so don't demand the library default's six.
		fcfg.WarmStart = &fleet.WarmStartConfig{MinDonorSamples: 2}
	}
	var safetyOpts *safety.Options
	if cfg.Safety {
		o := safety.DefaultOptions()
		safetyOpts = &o
	}
	shards := cfg.Shards
	if len(shards) == 0 {
		// The default layout: one shard whose tuners and faults are
		// seeded from the scenario (the shard defaults give the BO pool
		// its postgres catalogue, 60 candidates and 60-sample fits).
		shards = []shard.Config{{
			Name:        fleet.LocalShard,
			Seed:        sc.Seed,
			Parallelism: cfg.Parallelism,
			Tuner:       shard.TunerConfig{Count: cfg.Tuners, Seed: sc.Seed},
		}}
	}
	for _, scfg := range shards {
		if scfg.FaultProfile == "" {
			scfg.FaultProfile = profile
			scfg.FaultSeed = faultSeed
		}
		if scfg.Safety == nil {
			scfg.Safety = safetyOpts
		}
		fcfg.Shards = append(fcfg.Shards, scfg)
	}
	svc, err := fleet.New(fcfg)
	if err != nil {
		return nil, err
	}
	return &Runner{
		plan: p,
		cfg:  cfg,
		svc:  svc,
		status: Status{
			Scenario:     sc.Name,
			Windows:      p.Windows,
			ActionsTotal: len(p.Actions),
			TimeScale:    cfg.TimeScale,
		},
		m: newScenarioMetrics(obs.Default()),
	}, nil
}

// Service exposes the fleet under replay — for mounting HTTP surfaces
// and for tests. Close it via Runner.Close.
func (r *Runner) Service() *fleet.Service { return r.svc }

// Close releases the underlying fleet service.
func (r *Runner) Close() error { return r.svc.Close() }

// Status returns the live replay snapshot.
func (r *Runner) Status() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.status
}

// Run replays the schedule to completion (or ctx cancellation),
// returning the timeline result. Run must be called at most once.
func (r *Runner) Run(ctx context.Context) (*Result, error) {
	p, sc := r.plan, r.plan.Scenario
	windowMin := int(p.Window / time.Minute)
	res := &Result{
		Scenario:  sc.Name,
		Seed:      sc.Seed,
		Windows:   p.Windows,
		WindowMin: windowMin,
		SLOP99Ms:  sc.SLOP99Ms,
		Timeline:  make([]Point, 0, p.Windows),
	}

	byWindow := map[int][]Action{}
	for _, a := range p.Actions {
		byWindow[a.Window] = append(byWindow[a.Window], a)
	}
	// createdAt tracks declaration windows for provision latency:
	// declared at window w, Tuned observed after window w' ⇒ latency
	// (w'+1)-w windows of virtual time.
	createdAt := map[string]int{}
	actionsDone := 0

	fail := func(err error) (*Result, error) {
		r.mu.Lock()
		r.status.Done = true
		r.status.Error = err.Error()
		r.mu.Unlock()
		return nil, err
	}

	for w := 0; w < p.Windows; w++ {
		wallStart := time.Now()
		if err := ctx.Err(); err != nil {
			return fail(fmt.Errorf("scenario %q interrupted at window %d: %w", sc.Name, w, err))
		}
		for _, a := range byWindow[w] {
			if err := a.apply(r.svc); err != nil {
				return fail(fmt.Errorf("scenario %q window %d: %s %s: %w", sc.Name, w, a.Kind, a.Tenant, err))
			}
			if a.Kind == ActCreateDatabase {
				createdAt[a.Tenant+"/"+a.Spec.ID] = w
			}
			actionsDone++
			r.m.actions.Inc()
		}

		step, err := r.svc.Step(p.Window)
		if err != nil {
			return fail(fmt.Errorf("scenario %q window %d: step: %w", sc.Name, w, err))
		}

		sloViol := 0
		maxP99 := 0.0
		for _, p99 := range step.P99Ms {
			if p99 > maxP99 {
				maxP99 = p99
			}
			if sc.SLOP99Ms > 0 && p99 > sc.SLOP99Ms {
				sloViol++
			}
		}
		for id, cw := range createdAt {
			tid, did := splitInstanceID(id)
			db, ok := r.svc.GetDatabase(tid, did)
			if !ok {
				delete(createdAt, id) // deleted before it tuned
				continue
			}
			if db.Phase == tenant.Tuned.String() {
				res.noteProvisionLatency(w + 1 - cw)
				delete(createdAt, id)
			}
		}

		counters, err := r.svc.Counters()
		if err != nil {
			return fail(fmt.Errorf("scenario %q window %d: counters: %w", sc.Name, w, err))
		}
		sum := r.svc.Summary()
		res.Throttles += step.Throttles
		res.SLOViolations += sloViol
		pt := Point{
			Window:        w + 1,
			VirtualMin:    (w + 1) * windowMin,
			Tenants:       sum.Tenants,
			Instances:     sum.Instances,
			Throttles:     step.Throttles,
			ThrottlesTot:  res.Throttles,
			SLOViolations: sloViol,
			SLOViolTot:    res.SLOViolations,
			Retries:       counters.Retries,
			Escalations:   counters.Escalations,
			Provisions:    int(sum.Provisions),
			Deprovisions:  int(sum.Deprovisions),
			Resizes:       int(sum.Resizes),
			Samples:       sum.Samples,
			Recs:          counters.Recommendations,
			ApplyFailures: counters.ApplyFailures,
			PlanUpgrades:  counters.PlanUpgrades,
			MaxP99Ms:      maxP99,
		}
		res.Timeline = append(res.Timeline, pt)
		if sum.Instances > res.PeakInstances {
			res.PeakInstances = sum.Instances
		}

		r.m.window.Set(float64(w + 1))
		r.m.throttles.Add(float64(step.Throttles))
		r.m.sloViol.Add(float64(sloViol))
		r.mu.Lock()
		r.status.Window = w + 1
		r.status.VirtualMin = pt.VirtualMin
		r.status.Tenants = sum.Tenants
		r.status.Instances = sum.Instances
		r.status.Throttles = res.Throttles
		r.status.SLOViolations = res.SLOViolations
		r.status.ActionsDone = actionsDone
		r.mu.Unlock()

		if r.cfg.TimeScale > 0 {
			wait := time.Duration(float64(p.Window)/r.cfg.TimeScale) - time.Since(wallStart)
			if wait > 0 {
				select {
				case <-ctx.Done():
					return fail(fmt.Errorf("scenario %q interrupted at window %d: %w", sc.Name, w+1, ctx.Err()))
				case <-time.After(wait):
				}
			}
		}
	}

	last := res.Timeline[len(res.Timeline)-1]
	res.Retries, res.Escalations = last.Retries, last.Escalations
	res.Provisions, res.Deprovisions, res.Resizes = last.Provisions, last.Deprovisions, last.Resizes
	if counters, err := r.svc.Counters(); err == nil {
		res.SafetyVetoes = counters.SafetyVetoes
		res.SafetyCanaryRuns = counters.SafetyCanaryRuns
		res.SafetyRollbacks = counters.SafetyRollbacks
		res.SafetyRegressing = counters.SafetyRegressing
	}
	fp, err := r.svc.Fingerprint()
	if err != nil {
		return fail(fmt.Errorf("scenario %q: fingerprint: %w", sc.Name, err))
	}
	res.Fingerprint = fingerprintHash(fp)

	r.mu.Lock()
	r.status.Done = true
	r.mu.Unlock()
	return res, nil
}

// splitInstanceID splits "<tenant>/<db>".
func splitInstanceID(id string) (string, string) {
	for i := 0; i < len(id); i++ {
		if id[i] == '/' {
			return id[:i], id[i+1:]
		}
	}
	return id, ""
}
