// Package fleet is the elastic multi-tenant control plane of AutoDBaaS:
// a long-running service in which Tenants own database services stamped
// out of Blueprints into Tiers, and a reconcile loop drives desired
// state (declared over the REST API) toward observed state (shard
// membership) one virtual-time tick at a time.
//
// The fleet always runs on a shard.Coordinator, built from shard
// configs (Config.Shards) or pre-built shards (Config.ShardHosts); a
// shard config is the one place a tuner pool, a fault profile and a
// safety gate are declared. Without either, the fleet is one in-process
// shard named LocalShard around the caller's Config.Tuners.
// Placement, stepping, status, fingerprints and snapshots take the same
// path on every layout: a snapshot is the coordinator's container with
// one shard container nested per shard and the fleet's control-plane
// section last.
//
// The API mutations (create/delete tenant, create/resize/delete
// database) only edit desired state, held in a Model; all engine side
// effects happen inside Step, which reconciles first — provisioning
// Pending databases, applying pending resizes (re-blueprint + tuner warm
// start from the shared repository history), draining and removing
// deleted ones — and then advances the whole fleet one observation
// window. Reconciliation iterates tenants and databases in sorted ID
// order, so a scripted lifecycle schedule produces the same onboarding
// order, the same membership generations and therefore bit-for-bit the
// same fleet fingerprint at every parallelism level, clean or under
// fault injection, across kill/restore.
package fleet

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"autodbaas/internal/obs"
	"autodbaas/internal/shard"
	"autodbaas/internal/tenant"
	"autodbaas/internal/tuner"
	"autodbaas/internal/workload"
)

// Typed errors; the REST layer maps them to status codes.
var (
	// ErrNotFound: unknown tenant, database, tier or blueprint.
	ErrNotFound = errors.New("fleet: not found")
	// ErrConflict: the mutation collides with current state (duplicate
	// create, delete of a draining database, ...).
	ErrConflict = errors.New("fleet: conflict")
	// ErrInvalid: the request itself is malformed (bad ID, plan outside
	// the tier, quota exceeded, ...).
	ErrInvalid = errors.New("fleet: invalid")
)

// Config assembles a Service.
type Config struct {
	// Seed is the root of every per-instance engine seed.
	Seed int64
	// Parallelism and Tuners build the fallback layout — one in-process
	// shard named LocalShard, stepping on Parallelism workers (0:
	// GOMAXPROCS) around the caller's tuners (len >= 1 there), with no
	// fault injection and no safety gate. Ignored when Shards or
	// ShardHosts are set: each shard config sets its own parallelism,
	// tuner pool, fault profile and safety gate.
	Parallelism int
	Tuners      []tuner.Tuner
	// Tiers and Blueprints are the service catalogue; nil means the
	// built-in defaults from the tenant package.
	Tiers      map[string]tenant.Tier
	Blueprints map[string]tenant.Blueprint

	// Shards lays the fleet out as one in-process shard per config.
	// Instance placement is the coordinator's rendezvous hash; the shard
	// map (names, in order) is part of the determinism contract.
	Shards []shard.Config
	// ShardHosts supplies pre-built shards instead — e.g. shard.Remote
	// proxies to `autodbaas -worker` processes. Takes precedence over
	// Shards. The service owns them: Close releases them.
	ShardHosts []shard.Shard

	// WarmStart, when non-nil, seeds every newly provisioned database's
	// tuner from the repository history of workload-similar instances
	// and applies the donor's best configuration as the starting point
	// (see warmstart.go). Nil (the default) keeps cold starts — and
	// every existing timeline — byte-identical. Only a fleet that is
	// exactly one in-process shard can warm-start.
	WarmStart *WarmStartConfig
}

// LocalShard names the one in-process shard of a one-shard layout.
const LocalShard = "local"

// oneLocalShard reports whether the config puts the whole fleet on one
// in-process shard — the layout whose repository is a fleet-scope
// donor store for warm starts. It reads the config only, so rejecting
// a config never touches the caller's shard hosts.
func (c Config) oneLocalShard() bool {
	switch len(c.ShardHosts) {
	case 0:
		return len(c.Shards) <= 1
	case 1:
		_, ok := c.ShardHosts[0].(*shard.Local)
		return ok
	}
	return false
}

// Service is the fleet control plane. All methods are safe for
// concurrent use.
type Service struct {
	mu sync.Mutex
	// stepMu serialises what must sit on a window boundary — Step,
	// snapshots, RestoreFrom and Rebalance — so an HTTP snapshot never
	// encodes a window that is still running.
	stepMu sync.Mutex
	cfg    Config
	coord  *shard.Coordinator
	// local is the fleet's only shard when that shard is in-process
	// (nil otherwise): the home of warm starts.
	local *shard.Local

	// model is the desired state: tenant and database records, the
	// mutation checks, the reconcile phase machine and lifecycle totals.
	// The service performs its engine side effects (provision, resize,
	// deprovision).
	model *Model

	// Snapshot cadence and the newest snapshot written, under mu.
	ckptDir        string
	ckptEvery      int
	ckptLastPath   string
	ckptLastWindow int

	warmHits   int64
	warmMisses int64
	warmSeeded int64

	m fleetMetrics
}

type fleetMetrics struct {
	tenants      *obs.Gauge
	instances    *obs.Gauge
	provisions   *obs.Counter
	deprovisions *obs.Counter
	resizes      *obs.Counter
	reconcile    *obs.Histogram
	warmstart    warmStartMetrics
}

func newFleetMetrics(r *obs.Registry) fleetMetrics {
	return fleetMetrics{
		tenants:      r.Gauge("autodbaas_fleet_tenants", "Tenants currently declared on the fleet service."),
		instances:    r.Gauge("autodbaas_fleet_instances", "Database service instances currently provisioned."),
		provisions:   r.Counter("autodbaas_fleet_provisions_total", "Database services provisioned by the reconciler."),
		deprovisions: r.Counter("autodbaas_fleet_deprovisions_total", "Database services deprovisioned by the reconciler."),
		resizes:      r.Counter("autodbaas_fleet_resizes_total", "Database service resizes applied by the reconciler."),
		reconcile:    r.Histogram("autodbaas_fleet_reconcile_seconds", "Wall-clock latency of one reconcile pass (desired vs observed).", nil),
		warmstart:    newWarmStartMetrics(r),
	}
}

// New wires a Service and its shard coordinator from the config.
func New(cfg Config) (*Service, error) {
	if cfg.Tiers == nil {
		cfg.Tiers = tenant.DefaultTiers()
	}
	if cfg.Blueprints == nil {
		cfg.Blueprints = tenant.DefaultBlueprints()
	}
	for _, t := range cfg.Tiers {
		if err := t.Validate(); err != nil {
			return nil, err
		}
	}
	for _, b := range cfg.Blueprints {
		if err := b.Validate(); err != nil {
			return nil, err
		}
	}
	if cfg.WarmStart != nil && !cfg.oneLocalShard() {
		return nil, fmt.Errorf("%w: warm starts need the fleet to be exactly one in-process shard (shards partition the repository the donor query reads)", ErrInvalid)
	}
	shards := cfg.ShardHosts
	if len(shards) == 0 {
		for _, sc := range cfg.Shards {
			l, err := shard.NewLocal(sc)
			if err != nil {
				return nil, err
			}
			shards = append(shards, l)
		}
	}
	if len(shards) == 0 {
		l, err := shard.NewLocalWith(shard.Config{Name: LocalShard, Parallelism: cfg.Parallelism}, nil, cfg.Tuners...)
		if err != nil {
			return nil, err
		}
		shards = []shard.Shard{l}
	}
	coord, err := shard.NewCoordinator(shards...)
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:   cfg,
		coord: coord,
		model: NewModel(cfg.Tiers, cfg.Blueprints),
		m:     newFleetMetrics(obs.Default()),
	}
	s.model.seed, s.model.fx = cfg.Seed, s
	if len(shards) == 1 {
		s.local, _ = shards[0].(*shard.Local)
	}
	return s, nil
}

// Coordinator exposes the shard coordinator the fleet runs on — for
// rebalance tooling and tests.
func (s *Service) Coordinator() *shard.Coordinator { return s.coord }

// Close releases the shards (remote shard connections, if any).
func (s *Service) Close() error { return s.coord.Close() }

// Tiers returns the service catalogue's tiers.
func (s *Service) Tiers() map[string]tenant.Tier { return s.cfg.Tiers }

// Blueprints returns the service catalogue's blueprints.
func (s *Service) Blueprints() map[string]tenant.Blueprint { return s.cfg.Blueprints }

// mutate applies one API mutation to the desired-state model.
func (s *Service) mutate(apply func(*Model) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := apply(s.model)
	s.m.tenants.Set(float64(len(s.model.tenants)))
	return err
}

// CreateTenant declares a tenant (see Model.CreateTenant).
func (s *Service) CreateTenant(t tenant.Tenant) error {
	return s.mutate(func(m *Model) error { return m.CreateTenant(t) })
}

// DeleteTenant marks a tenant for removal (see Model.DeleteTenant).
func (s *Service) DeleteTenant(id string) error {
	return s.mutate(func(m *Model) error { return m.DeleteTenant(id) })
}

// DatabaseSpec is the creation request for one database service.
type DatabaseSpec struct {
	ID        string `json:"id"`
	Blueprint string `json:"blueprint"`
	// Plan optionally overrides the blueprint's plan; it must be allowed
	// by the tenant's tier either way.
	Plan string `json:"plan,omitempty"`
	// Shape optionally modulates the blueprint workload's offered load
	// over scenario time (diurnal curves, flash crowds, drift).
	Shape *workload.Shape `json:"shape,omitempty"`
}

// CreateDatabase declares a database (see Model.CreateDatabase).
func (s *Service) CreateDatabase(tenantID string, spec DatabaseSpec) error {
	return s.mutate(func(m *Model) error { return m.CreateDatabase(tenantID, spec) })
}

// DeleteDatabase marks a database for removal (see Model.DeleteDatabase).
func (s *Service) DeleteDatabase(tenantID, dbID string) error {
	return s.mutate(func(m *Model) error { return m.DeleteDatabase(tenantID, dbID) })
}

// ResizeDatabase requests a new VM plan (see Model.ResizeDatabase).
func (s *Service) ResizeDatabase(tenantID, dbID, plan string) error {
	return s.mutate(func(m *Model) error { return m.ResizeDatabase(tenantID, dbID, plan) })
}

// provision stamps one database out of its blueprint onto its shard:
// the engine side of a Pending → WarmUp transition. Callers hold s.mu.
func (s *Service) provision(id string, db *dbState, bp tenant.Blueprint) error {
	if err := s.coord.AddInstance(instanceSpec(id, db, bp)); err != nil {
		return err
	}
	return s.warmStartLocked(id, bp)
}

// resize re-blueprints a database onto its pending plan. Callers hold
// s.mu.
func (s *Service) resize(id string, db *dbState, bp tenant.Blueprint) error {
	if err := s.coord.ResizeInstance(id, db.Pending, db.Seed, agentConfig(bp)); err != nil {
		return err
	}
	// A resized workload normally keeps its own history (the warm start
	// the paper already gets from shared tuners); the hook only seeds
	// when the history is empty.
	return s.warmStartLocked(id, bp)
}

// deprovision removes a drained database from its shard. Callers hold
// s.mu.
func (s *Service) deprovision(id string) error { return s.coord.RemoveInstance(id) }

// instanceSpec assembles the declarative engine spec for one database:
// the blueprint's workload and agent settings, the record's current
// plan, seed and load shape.
func instanceSpec(id string, db *dbState, bp tenant.Blueprint) shard.InstanceSpec {
	wl := bp.Workload
	if db.Shape != nil && !db.Shape.Empty() {
		wl.Shape = db.Shape
	}
	return shard.InstanceSpec{
		ID:       id,
		Plan:     db.Plan,
		Engine:   bp.Engine,
		Slaves:   bp.Slaves,
		Seed:     db.Seed,
		Workload: wl,
		Agent:    agentConfig(bp),
	}
}

// agentConfig derives the serializable tuning-agent config from a
// blueprint.
func agentConfig(bp tenant.Blueprint) shard.AgentConfig {
	return shard.AgentConfig{
		TickEveryMin: bp.TickEveryMin,
		GateSamples:  bp.GateSamples,
		Periodic:     bp.Mode == "periodic",
	}
}

// reconcileLocked drives observed membership toward desired state: one
// pass of the model's phase machine per Step, whose engine side effects
// land through s. The lifecycle counters follow the model's totals,
// which count every transition the pass completed. Callers hold s.mu.
func (s *Service) reconcileLocked() error {
	start := time.Now()
	defer func() { s.m.reconcile.Observe(time.Since(start).Seconds()) }()
	p0, d0, r0 := s.model.Totals()
	err := s.model.Reconcile()
	p1, d1, r1 := s.model.Totals()
	s.m.provisions.Add(float64(p1 - p0))
	s.m.deprovisions.Add(float64(d1 - d0))
	s.m.resizes.Add(float64(r1 - r0))
	if err != nil {
		return err
	}
	s.m.tenants.Set(float64(len(s.model.tenants)))
	s.m.instances.Set(float64(len(s.coord.Instances())))
	return nil
}

// Step runs one reconcile pass and advances the fleet one observation
// window of the given duration. The reconcile happens first, so a
// database created between ticks is provisioned before it ever steps,
// and one deleted between ticks drains exactly one final window. An
// armed auto-checkpoint (SetAutoCheckpoint) is written before Step
// returns; a failed write fails the step.
func (s *Service) Step(dur time.Duration) (shard.StepResult, error) {
	s.stepMu.Lock()
	defer s.stepMu.Unlock()
	s.mu.Lock()
	err := s.reconcileLocked()
	s.mu.Unlock()
	if err != nil {
		return shard.StepResult{}, err
	}
	res, err := s.coord.Step(dur)
	if err != nil {
		return res, err
	}
	s.mu.Lock()
	dir, every := s.ckptDir, s.ckptEvery
	s.mu.Unlock()
	if dir != "" && every > 0 && res.Window%every == 0 {
		if _, err := s.checkpoint(dir); err != nil {
			return res, fmt.Errorf("fleet: auto-checkpoint: %w", err)
		}
	}
	return res, nil
}

// SetAutoCheckpoint arms a snapshot (see CheckpointNow) after every
// everyN-th window; an empty dir or everyN <= 0 disarms it.
func (s *Service) SetAutoCheckpoint(dir string, everyN int) {
	s.mu.Lock()
	s.ckptDir, s.ckptEvery = dir, everyN
	s.mu.Unlock()
}

// Windows returns the number of completed fleet steps.
func (s *Service) Windows() int { return s.coord.Window() }

// Counters reports the control-plane counters accumulated across shards.
func (s *Service) Counters() (shard.Counters, error) { return s.coord.Counters() }

// Rebalance migrates a database's backing instance onto another shard:
// its live state is checkpointed out of the source shard and restored
// into the destination, with no change to desired state — the move is
// invisible to the tenant. The target must be another shard in the map.
func (s *Service) Rebalance(tenantID, dbID, toShard string) error {
	s.mu.Lock()
	_, db, err := s.model.database(tenantID, dbID)
	switch {
	case err != nil:
	case db.Phase == tenant.Pending:
		err = fmt.Errorf("%w: database %q is not provisioned yet", ErrConflict, dbID)
	case db.Deleting:
		err = fmt.Errorf("%w: database %q is being deprovisioned", ErrConflict, dbID)
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if _, ok := s.coord.Shard(toShard); !ok {
		return fmt.Errorf("%w: no shard %q in the fleet's shard map %v", ErrInvalid, toShard, s.coord.ShardNames())
	}
	s.stepMu.Lock()
	defer s.stepMu.Unlock()
	return s.coord.Rebalance(instanceID(tenantID, dbID), toShard)
}
