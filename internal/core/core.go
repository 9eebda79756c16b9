// Package core assembles AutoDBaaS: the service orchestrator, Data
// Federation Agent, config director, central data repository, tuner
// fleet and per-instance tuning agents, wired exactly as Figure 1 of
// the paper. It is the library's primary public surface: provision
// database service instances, attach workloads, and step the whole
// system through (virtual) time.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"autodbaas/internal/agent"
	"autodbaas/internal/checkpoint"
	"autodbaas/internal/cluster"
	"autodbaas/internal/dfa"
	"autodbaas/internal/director"
	"autodbaas/internal/faults"
	"autodbaas/internal/knobs"
	"autodbaas/internal/monitor"
	"autodbaas/internal/obs"
	"autodbaas/internal/orchestrator"
	"autodbaas/internal/repository"
	"autodbaas/internal/safety"
	"autodbaas/internal/simdb"
	"autodbaas/internal/tde"
	"autodbaas/internal/tuner"
	"autodbaas/internal/workload"
)

// Options configures a System beyond its tuner fleet.
type Options struct {
	// Parallelism bounds how many instances step concurrently inside
	// one Step call. Each instance owns its virtual clock and RNG, so
	// observation windows are independent; control-plane side effects
	// are merged in onboarding order, making results bit-for-bit
	// identical at every parallelism level. 0 means GOMAXPROCS.
	Parallelism int
	// Faults, when non-nil, injects deterministic faults into every seam
	// of the deployment: engine apply/restart/window hooks, tuner
	// Recommend wrappers, repository fan-out fates and monitor sampling.
	// The injector's per-site PRNG streams keep chaos runs bit-for-bit
	// reproducible from (seed, profile) at every parallelism level.
	Faults *faults.Injector
	// Safety, when non-nil, wires the safe-tuning gate (internal/safety)
	// between tuner recommendations and the director's apply: shadow
	// canary evaluation, trust regions around known-good configs, and
	// automatic rollback on post-apply regression. Gate state rides
	// checkpoints in the "extra/safety" section. Zero fields default.
	Safety *safety.Options
}

// System is one AutoDBaaS deployment.
type System struct {
	mu sync.Mutex

	Orchestrator *orchestrator.Orchestrator
	DFA          *dfa.DFA
	Director     *director.Director
	Repository   *repository.Repository
	Tuners       []tuner.Tuner

	agents   map[string]*agent.Agent
	order    []string
	monitors map[string]*monitor.Agent

	// Membership table: generation is a monotonic counter bumped on
	// every add, remove and resize; memberGens records the generation at
	// which each live member last (re-)joined. Together with order it is
	// the cohort the checkpoint manifest pins, so a snapshot can name
	// exactly which fleet it was taken from.
	generation int
	memberGens map[string]int

	parallelism int
	faults      *faults.Injector
	safety      *safety.Gate
	m           coreMetrics

	// windows counts completed Steps; it rides the snapshot manifest so
	// a restored system resumes the numbering.
	windows int
	// ckptExtras are auxiliary snapshot sections registered by layered
	// subsystems (see RegisterCheckpointExtra).
	ckptExtras []checkpoint.Extra
}

// coreMetrics are the fleet scheduler's registry handles.
type coreMetrics struct {
	stepSeconds  *obs.Histogram
	mergeSeconds *obs.Histogram
	workersBusy  *obs.Gauge
	utilization  *obs.Gauge
	parallelism  *obs.Gauge
}

func newCoreMetrics(r *obs.Registry) coreMetrics {
	return coreMetrics{
		stepSeconds:  r.Histogram("autodbaas_core_step_seconds", "Wall-clock latency of one fleet step (parallel windows + ordered merge).", nil),
		mergeSeconds: r.Histogram("autodbaas_core_step_merge_seconds", "Wall-clock latency of the ordered control-plane merge phase of one step.", nil),
		workersBusy:  r.Gauge("autodbaas_core_fleet_workers_busy", "Fleet-scheduler workers currently running an instance window."),
		utilization:  r.Gauge("autodbaas_core_fleet_worker_utilization", "Busy-time share of the worker pool over the last parallel window phase (0-1)."),
		parallelism:  r.Gauge("autodbaas_core_fleet_parallelism", "Configured fleet-step parallelism."),
	}
}

// NewSystem wires a deployment around the given tuner fleet with
// default options. Every tuner is subscribed to the central data
// repository.
func NewSystem(tuners ...tuner.Tuner) (*System, error) {
	return NewSystemWithOptions(Options{}, tuners...)
}

// NewSystemWithOptions wires a deployment around the given tuner fleet.
func NewSystemWithOptions(opts Options, tuners ...tuner.Tuner) (*System, error) {
	if len(tuners) == 0 {
		return nil, errors.New("core: need at least one tuner instance")
	}
	if opts.Safety != nil {
		if err := opts.Safety.Validate(); err != nil {
			return nil, err
		}
	}
	par := opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	orch := orchestrator.New()
	d := dfa.New(orch)
	// Chaos decoration happens at wiring time so every path — director
	// dispatch, repository fan-out, engine hooks — sees the same wrapped
	// fleet. WrapTuners preserves the tde.Baseline capability.
	tuners = opts.Faults.WrapTuners(tuners)
	dir, err := director.New(orch, d, tuners...)
	if err != nil {
		return nil, err
	}
	repo := repository.New()
	if opts.Faults != nil {
		repo.InjectFaults(opts.Faults)
	}
	for _, t := range tuners {
		repo.Subscribe(t)
	}
	s := &System{
		Orchestrator: orch,
		DFA:          d,
		Director:     dir,
		Repository:   repo,
		Tuners:       tuners,
		agents:       make(map[string]*agent.Agent),
		monitors:     make(map[string]*monitor.Agent),
		memberGens:   make(map[string]int),
		parallelism:  par,
		faults:       opts.Faults,
		m:            newCoreMetrics(obs.Default()),
	}
	if opts.Safety != nil {
		g := safety.NewGate(*opts.Safety)
		s.safety = g
		dir.SetSafetyGate(g)
		// Gate state rides snapshots as "extra/safety" so kill/restore
		// resumes baselines, trust radii and in-flight watches exactly.
		s.RegisterCheckpointExtra(safety.SectionName,
			g.MarshalState, g.RestoreState)
	}
	s.m.parallelism.Set(float64(par))
	return s, nil
}

// SafetyGate returns the wired safe-tuning gate (nil when safety is
// off).
func (s *System) SafetyGate() *safety.Gate { return s.safety }

// InstanceSpec describes one database service instance to onboard.
type InstanceSpec struct {
	Provision cluster.ProvisionSpec
	Workload  workload.Generator
	Agent     agent.Options
}

// AddInstance provisions the instance, starts its tuning agent and
// external monitoring, and returns the agent.
func (s *System) AddInstance(spec InstanceSpec) (*agent.Agent, error) {
	if spec.Workload == nil {
		return nil, errors.New("core: nil workload")
	}
	inst, err := s.Orchestrator.Provision(spec.Provision)
	if err != nil {
		return nil, err
	}
	s.installFaultHooks(inst)
	opts := spec.Agent
	if opts.Mode == agent.ModePeriodic && opts.Tuning == nil {
		opts.Tuning = s.Director
	}
	// Default the bgwriter baseline to a tuner that can supply the
	// mapped-workload reference of §3.2 (the BO tuner does); otherwise
	// the TDE falls back to the static tuned-TPCC baseline.
	if opts.Baseline == nil {
		for _, t := range s.Tuners {
			if b, ok := t.(tde.Baseline); ok {
				opts.Baseline = b
				break
			}
		}
	}
	a, err := agent.New(inst, spec.Workload, s.Director, s.Repository, opts)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.agents[inst.ID]; dup {
		return nil, fmt.Errorf("core: agent for %s already exists", inst.ID)
	}
	s.agents[inst.ID] = a
	s.order = append(s.order, inst.ID)
	s.monitors[inst.ID] = monitor.NewAgent(100_000)
	s.generation++
	s.memberGens[inst.ID] = s.generation
	if s.safety != nil {
		s.safety.RegisterWorkload(inst.ID, spec.Workload)
	}
	return a, nil
}

// RemoveInstance deprovisions an instance mid-run: the repository
// releases its held samples so every sample the instance uploaded has
// reached the tuners (its training history outlives it — the fleet-wide warm
// start the paper's workload mapping relies on), then the agent,
// monitor, director shard, orchestrator record, fault-site streams and
// the agent's autodbaas_simdb_counter series are all dropped and the
// IaaS instance released. The membership
// generation bumps, so a snapshot taken after the removal pins the
// surviving cohort. Call it between Steps, never concurrently with one.
func (s *System) RemoveInstance(id string) error {
	s.mu.Lock()
	a, ok := s.agents[id]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: no agent for %s", id)
	}
	// Every held sample — including ones this instance uploaded in its
	// final window — is delivered before the member disappears.
	s.Repository.Flush()
	if err := s.Orchestrator.Deprovision(id); err != nil {
		return err
	}
	s.Director.ForgetInstance(id)
	s.faults.ForgetInstance(id)
	s.mu.Lock()
	delete(s.agents, id)
	delete(s.monitors, id)
	delete(s.memberGens, id)
	for i, oid := range s.order {
		if oid == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.generation++
	s.mu.Unlock()
	a.ReleaseMetrics()
	return nil
}

// ResizeInstance re-provisions an instance onto an explicit VM plan —
// the elastic fleet's resize verb, distinct from ApproveUpgrade's
// customer-driven next-plan-up path. Tunable knobs carry over (re-fitted
// to the new plan's memory budget), a fresh tuning agent and monitor
// replace the old ones, and the shared tuners' repository history gives
// the re-blueprinted instance a warm start. The membership generation
// bumps so snapshots distinguish the pre- and post-resize cohorts.
func (s *System) ResizeInstance(id, plan string, seed int64, opts agent.Options) (*agent.Agent, error) {
	s.mu.Lock()
	old, ok := s.agents[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("core: no agent for %s", id)
	}
	gen := old.Generator()
	inst, err := s.Orchestrator.Provisioner().Reprovision(id, plan, gen.DBSizeBytes(), seed)
	if err != nil {
		return nil, err
	}
	s.installFaultHooks(inst)
	if opts.Mode == agent.ModePeriodic && opts.Tuning == nil {
		opts.Tuning = s.Director
	}
	if opts.Baseline == nil {
		for _, t := range s.Tuners {
			if b, ok := t.(tde.Baseline); ok {
				opts.Baseline = b
				break
			}
		}
	}
	a, err := agent.New(inst, gen, s.Director, s.Repository, opts)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.agents[id] = a
	// Fresh monitor: the scrape count restarts on the new plan, as
	// ApproveUpgrade does.
	s.monitors[id] = monitor.NewAgent(100_000)
	s.generation++
	s.memberGens[id] = s.generation
	s.mu.Unlock()
	if s.safety != nil {
		// New plan, new performance envelope: baselines and the
		// known-good config no longer describe this instance.
		s.safety.Forget(id)
		s.safety.RegisterWorkload(id, gen)
	}
	if err := s.Orchestrator.PersistConfig(id, inst.Replica.Master().Config()); err != nil {
		return nil, err
	}
	return a, nil
}

// SeedConfig applies a starting configuration to a freshly provisioned
// instance — the fleet warm start's second half, alongside seeding the
// repository with donor history. The config is clamped to the engine's
// catalogue and re-fitted to the instance's memory budget (a donor may
// have run on a bigger plan), staged via the DFA, and made fully live
// with a node restart — the instance has served no traffic yet, so the
// restart is free — then persisted as the orchestrator's source of
// truth so reconciliation and redeploys keep it.
func (s *System) SeedConfig(id string, cfg knobs.Config) error {
	s.mu.Lock()
	a, ok := s.agents[id]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: no agent for %s", id)
	}
	inst := a.Instance()
	master := inst.Replica.Master()
	kcat := master.KnobCatalog()
	fitted := kcat.FitMemoryBudget(kcat.Clamp(cfg), knobs.MemoryBudget{
		TotalBytes: master.Resources().MemoryBytes, WorkMemSessions: 4,
	})
	if err := s.DFA.Apply(inst, fitted, simdb.ApplyReload); err != nil {
		return err
	}
	for _, node := range inst.Replica.Nodes() {
		if err := node.Restart(); err != nil {
			return fmt.Errorf("core: seed-config restart: %w", err)
		}
	}
	if s.safety != nil {
		// A donor's proven config is the best known-good starting point
		// the gate can center its trust region on.
		s.safety.RecordKnownGood(id, inst.Replica.Master().Config())
	}
	return s.Orchestrator.PersistConfig(id, inst.Replica.Master().Config())
}

// Member is one row of the membership table.
type Member struct {
	ID  string
	Gen int // generation at which the member last (re-)joined
}

// Members returns the live cohort in onboarding order with the
// generation each member joined at.
func (s *System) Members() []Member {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Member, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, Member{ID: id, Gen: s.memberGens[id]})
	}
	return out
}

// Generation returns the current membership generation — a monotonic
// counter bumped by every add, remove and resize.
func (s *System) Generation() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.generation
}

// FleetSize returns the number of live instances.
func (s *System) FleetSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.order)
}

// installFaultHooks attaches the injector's per-node engine hooks to
// every node of the instance (a no-op without an injector).
func (s *System) installFaultHooks(inst *cluster.Instance) {
	if s.faults == nil {
		return
	}
	for i, node := range inst.Replica.Nodes() {
		node.SetFaultHooks(s.faults.EngineHooks(inst.ID, i))
	}
}

// Agent returns the agent for an instance.
func (s *System) Agent(id string) (*agent.Agent, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.agents[id]
	return a, ok
}

// Agents returns all agents in onboarding order.
func (s *System) Agents() []*agent.Agent {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*agent.Agent, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.agents[id])
	}
	return out
}

// Monitor returns the external monitoring agent for an instance.
func (s *System) Monitor(id string) (*monitor.Agent, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.monitors[id]
	return m, ok
}

// StepResult aggregates one system step.
type StepResult struct {
	Windows   map[string]simdb.WindowStats
	Events    map[string][]tde.Event
	Errors    map[string]error
	Throttles int
}

// stepAgent is one fleet member snapshotted for a step.
type stepAgent struct {
	a   *agent.Agent
	mon *monitor.Agent
}

// snapshotFleet returns the fleet in onboarding order with its monitors.
func (s *System) snapshotFleet() []stepAgent {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]stepAgent, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, stepAgent{a: s.agents[id], mon: s.monitors[id]})
	}
	return out
}

// Step advances every instance by one observation window, sampling the
// monitoring series and dispatching TDE events through the director.
//
// The step runs in two phases. First the instance-local window
// simulation executes on a worker pool of up to Parallelism
// goroutines; every instance owns its virtual clock and RNG, so this
// phase has no cross-instance state. Then the detection round and the
// control-plane side effects (director dispatch, repository upload,
// monitor sampling) are merged strictly in onboarding order, with the
// repository's held samples released before each dispatch, so throttle
// counts, monitor series, tuner state and errors are bit-for-bit
// identical to the sequential schedule at any worker count.
func (s *System) Step(dur time.Duration) StepResult {
	stepStart := time.Now()
	fleet := s.snapshotFleet()
	res := StepResult{
		Windows: make(map[string]simdb.WindowStats),
		Events:  make(map[string][]tde.Event),
		Errors:  make(map[string]error),
	}
	outs := make([]agent.WindowOutcome, len(fleet))

	// Phase 1: parallel instance-local windows.
	workers := s.parallelism
	if workers > len(fleet) {
		workers = len(fleet)
	}
	if workers <= 1 {
		for i := range fleet {
			outs[i] = runWindowLocal(fleet[i], dur)
		}
	} else {
		var cursor atomic.Int64
		var busyNanos atomic.Int64
		var wg sync.WaitGroup
		phaseStart := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(cursor.Add(1)) - 1
					if i >= len(fleet) {
						return
					}
					s.m.workersBusy.Add(1)
					t0 := time.Now()
					outs[i] = runWindowLocal(fleet[i], dur)
					busyNanos.Add(int64(time.Since(t0)))
					s.m.workersBusy.Add(-1)
				}
			}()
		}
		wg.Wait()
		if wall := time.Since(phaseStart); wall > 0 {
			s.m.utilization.Set(float64(busyNanos.Load()) / float64(int64(workers)*int64(wall)))
		}
	}

	// Phase 2: ordered control-plane merge. The detection round runs
	// inside Dispatch — its checkpoint detector reads a baseline off
	// the shared tuner's sample store, which earlier agents' uploads in
	// this very step grow — so it must execute in fleet order.
	mergeStart := time.Now()
	for i := range fleet {
		a := fleet[i].a
		id := a.Instance().ID
		// Release held samples so this dispatch sees exactly the tuner
		// state the sequential schedule would.
		s.Repository.Flush()
		dispatchErr := a.Dispatch(&outs[i])
		out := outs[i]
		res.Windows[id] = out.Stats
		res.Events[id] = out.Events
		for _, ev := range out.Events {
			if ev.Kind == tde.KindThrottle {
				res.Throttles++
			}
		}
		switch {
		case out.Err != nil:
			res.Errors[id] = out.Err
		case dispatchErr != nil:
			res.Errors[id] = dispatchErr
		}
		// Safety gate window intake: still inside the ordered merge, right
		// after this instance's dispatch (which may have applied a config),
		// so the gate sees windows and applies in the exact sequential
		// order at every parallelism level. Rollbacks happen here.
		if s.safety != nil {
			s.Director.SafetyObserve(a.Instance(), out.Stats, out.Err == nil)
		}
		// External monitoring (the Dynatrace substitute) counts one
		// scrape per window, after dispatch as in the sequential
		// schedule. An injected monitor loss drops this window's scrape,
		// as if it timed out.
		if mon := fleet[i].mon; mon != nil && !s.faults.DropMonitorSample(id) {
			_ = mon.Series("disk_latency_ms").Append(a.Instance().Replica.Master().Now(), out.Stats.DiskLatencyMs)
		}
	}
	s.Repository.Flush()
	s.m.mergeSeconds.Observe(time.Since(mergeStart).Seconds())

	// Reconciler watch loop rides on the step cadence.
	s.mu.Lock()
	var first *agent.Agent
	if len(s.order) > 0 {
		first = s.agents[s.order[0]]
	}
	s.mu.Unlock()
	if first != nil {
		s.Orchestrator.ReconcileTick(first.Instance().Replica.Master().Now())
	}
	s.mu.Lock()
	s.windows++
	s.mu.Unlock()
	s.m.stepSeconds.Observe(time.Since(stepStart).Seconds())
	return res
}

// runWindowLocal runs one fleet member's instance-local phase. Only
// sa's own state is touched, so calls for distinct members run
// concurrently.
func runWindowLocal(sa stepAgent, dur time.Duration) agent.WindowOutcome {
	return sa.a.RunWindowLocal(dur)
}

// MaintenanceWindow runs the scheduled-downtime logic on one instance.
func (s *System) MaintenanceWindow(id string) error {
	return s.Director.MaintenanceWindowByID(id)
}

// ApproveUpgrade acts on the TDE's plan-upgrade signals for an instance
// (the customer said yes): the instance is re-provisioned onto the next
// larger VM plan with its tunable configuration preserved, and a fresh
// tuning agent replaces the old one.
func (s *System) ApproveUpgrade(id string, seed int64) (*agent.Agent, error) {
	s.mu.Lock()
	old, ok := s.agents[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("core: no agent for %s", id)
	}
	if s.Director.PendingUpgradeRequests(id) == 0 {
		return nil, fmt.Errorf("core: no pending upgrade request for %s", id)
	}
	gen := old.Generator()
	inst, err := s.Orchestrator.Provisioner().UpgradePlan(id, gen.DBSizeBytes(), seed)
	if err != nil {
		return nil, err
	}
	s.installFaultHooks(inst)
	opts := agent.Options{TickEvery: 5 * time.Minute, GateSamples: true}
	a, err := agent.New(inst, gen, s.Director, s.Repository, opts)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.agents[id] = a
	// Fresh monitor: the scrape count restarts on the new plan.
	s.monitors[id] = monitor.NewAgent(100_000)
	s.mu.Unlock()
	if s.safety != nil {
		s.safety.Forget(id)
		s.safety.RegisterWorkload(id, gen)
	}
	s.Director.ClearUpgradeRequests(id)
	// Persist the upgraded instance's config as the new source of truth.
	if err := s.Orchestrator.PersistConfig(id, inst.Replica.Master().Config()); err != nil {
		return nil, err
	}
	return a, nil
}
