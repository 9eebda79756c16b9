// Package fleet is the elastic multi-tenant control plane of AutoDBaaS:
// a long-running service in which Tenants own database services stamped
// out of Blueprints into Tiers, and a reconcile loop drives desired
// state (declared over the REST API) toward observed state (shard
// membership) one virtual-time tick at a time.
//
// The fleet always runs on a shard.Coordinator. By default it has one
// in-process shard (LocalShard) built from Config.Tuners, Faults,
// Parallelism and Safety; Config.Shards and Config.ShardHosts lay it
// out over several in-process shards or worker processes instead.
// Placement, stepping, status, fingerprints and snapshots take the same
// path on every layout: a snapshot is the coordinator's container with
// one shard container nested per shard and the fleet's control-plane
// section riding as an extra.
//
// The API mutations (create/delete tenant, create/resize/delete
// database) only edit desired state; all engine side effects happen
// inside Step, which reconciles first — provisioning Pending databases,
// applying pending resizes (re-blueprint + tuner warm start from the
// shared repository history), draining and removing deleted ones — and
// then advances the whole fleet one observation window. Reconciliation
// iterates tenants and databases in sorted ID order, so a scripted
// lifecycle schedule produces the same onboarding order, the same
// membership generations and therefore bit-for-bit the same fleet
// fingerprint at every parallelism level, clean or under fault
// injection, across kill/restore.
package fleet

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"autodbaas/internal/cluster"
	"autodbaas/internal/core"
	"autodbaas/internal/faults"
	"autodbaas/internal/obs"
	"autodbaas/internal/safety"
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
	// Parallelism is the fleet-step worker bound (0: GOMAXPROCS).
	Parallelism int
	// Faults optionally injects deterministic chaos (may be nil).
	// Ignored when Shards or ShardHosts are set — each shard config
	// names its own fault profile.
	Faults *faults.Injector
	// Tuners is the tuner fleet of the default layout's one in-process
	// shard (len >= 1 there). Ignored when Shards or ShardHosts are set —
	// each shard builds its own tuner pool from its config.
	Tuners []tuner.Tuner
	// Tiers and Blueprints are the service catalogue; nil means the
	// built-in defaults from the tenant package.
	Tiers      map[string]tenant.Tier
	Blueprints map[string]tenant.Blueprint

	// Shards replaces the default layout — one in-process shard named
	// LocalShard, built from Parallelism, Faults, Tuners and Safety —
	// with one in-process shard per config. Instance placement is the
	// coordinator's rendezvous hash; the shard map (names, in order) is
	// part of the determinism contract.
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

	// Safety, when non-nil, enables the safe-tuning gate on the default
	// layout's shard (internal/safety): shadow canary evaluation, trust
	// regions and automatic rollback in front of every tuner apply.
	// Ignored when Shards or ShardHosts are set — put safety.Options on
	// each shard config instead (each shard runs its own gate).
	Safety *safety.Options
}

// LocalShard names the one in-process shard of the default layout.
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

// dbState is the desired+observed record of one database service. It is
// JSON-serializable: the control-plane section of a snapshot is exactly
// these records plus the onboarding order.
type dbState struct {
	ID        string          `json:"id"`
	Blueprint string          `json:"blueprint"`
	Plan      string          `json:"plan"` // current plan (tracks resizes)
	Seed      int64           `json:"seed"` // engine seed of the last (re-)provision
	Joins     int             `json:"joins"`
	Phase     tenant.Phase    `json:"phase"`
	Warmup    int             `json:"warmup,omitempty"`       // windows left in WarmUp
	Pending   string          `json:"pending_plan,omitempty"` // resize target
	Deleting  bool            `json:"deleting,omitempty"`
	Shape     *workload.Shape `json:"shape,omitempty"` // load shape over the blueprint's workload
}

// tenantState is one tenant's desired state. deleted marks the tenant
// itself for removal once its last database has drained.
type tenantState struct {
	Tenant  tenant.Tenant
	DBs     map[string]*dbState
	deleted bool
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
	// (nil otherwise): the home of System() and of warm starts.
	local *shard.Local

	tenants map[string]*tenantState

	// Snapshot cadence and the newest snapshot written, under mu.
	ckptDir        string
	ckptEvery      int
	ckptLastPath   string
	ckptLastWindow int

	provisions   int64
	deprovisions int64
	resizes      int64
	warmHits     int64
	warmMisses   int64
	warmSeeded   int64

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
		l, err := shard.NewLocalWith(shard.Config{Name: LocalShard, Parallelism: cfg.Parallelism, Safety: cfg.Safety}, cfg.Faults, cfg.Tuners...)
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
		cfg:     cfg,
		coord:   coord,
		tenants: make(map[string]*tenantState),
		m:       newFleetMetrics(obs.Default()),
	}
	if len(shards) == 1 {
		s.local, _ = shards[0].(*shard.Local)
	}
	coord.RegisterCheckpointExtra(controlSection, s.saveControlState, nil)
	return s, nil
}

// System exposes the deployment of the fleet's one in-process shard —
// for mounting its HTTP surfaces and for tests. Nil when the fleet has
// several shards or a remote one (there is no single System); use
// Coordinator then. A restore swaps the System, so fetch it afterwards.
// Mutate membership through the Service, not directly.
func (s *Service) System() *core.System {
	if s.local == nil {
		return nil
	}
	return s.local.System()
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

// instanceID forms the core.System instance ID of one database.
func instanceID(tenantID, dbID string) string { return tenantID + "/" + dbID }

// instSeed derives the deterministic engine seed for the join-th
// (re-)provision of an instance: root seed XOR fnv64a(id#join). It
// depends only on names and join counts, never on wall time or
// interleaving.
func (s *Service) instSeed(id string, join int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s#%d", id, join)
	return s.cfg.Seed ^ int64(h.Sum64())
}

// CreateTenant declares a tenant. The tier must exist.
func (s *Service) CreateTenant(t tenant.Tenant) error {
	if !tenant.ValidID(t.ID) {
		return fmt.Errorf("%w: tenant ID %q (want %s)", ErrInvalid, t.ID, "lowercase alphanumeric with ._-")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.cfg.Tiers[t.Tier]; !ok {
		return fmt.Errorf("%w: tier %q", ErrNotFound, t.Tier)
	}
	if _, dup := s.tenants[t.ID]; dup {
		return fmt.Errorf("%w: tenant %q already exists", ErrConflict, t.ID)
	}
	s.tenants[t.ID] = &tenantState{Tenant: t, DBs: make(map[string]*dbState)}
	s.m.tenants.Set(float64(len(s.tenants)))
	return nil
}

// DeleteTenant marks every database of the tenant for deletion; the
// tenant record disappears once the reconciler has drained them all. A
// tenant with no databases goes away immediately.
func (s *Service) DeleteTenant(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts, ok := s.tenants[id]
	if !ok {
		return fmt.Errorf("%w: tenant %q", ErrNotFound, id)
	}
	if len(ts.DBs) == 0 {
		delete(s.tenants, id)
		s.m.tenants.Set(float64(len(s.tenants)))
		return nil
	}
	ts.deleted = true
	for _, db := range ts.DBs {
		db.Deleting = true
	}
	return nil
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

// CreateDatabase declares a database. Provisioning happens at the next
// reconcile tick.
func (s *Service) CreateDatabase(tenantID string, spec DatabaseSpec) error {
	if !tenant.ValidID(spec.ID) {
		return fmt.Errorf("%w: database ID %q", ErrInvalid, spec.ID)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ts, ok := s.tenants[tenantID]
	if !ok {
		return fmt.Errorf("%w: tenant %q", ErrNotFound, tenantID)
	}
	if ts.deleted {
		return fmt.Errorf("%w: tenant %q is being deprovisioned", ErrConflict, tenantID)
	}
	bp, ok := s.cfg.Blueprints[spec.Blueprint]
	if !ok {
		return fmt.Errorf("%w: blueprint %q", ErrNotFound, spec.Blueprint)
	}
	tier := s.cfg.Tiers[ts.Tenant.Tier]
	plan := spec.Plan
	if plan == "" {
		plan = bp.Plan
	}
	if _, err := cluster.TypeByName(plan); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if !tier.AllowsPlan(plan) {
		return fmt.Errorf("%w: tier %q does not allow plan %q (allowed: %v)", ErrInvalid, tier.Name, plan, tier.AllowedPlans)
	}
	live := 0
	for _, db := range ts.DBs {
		if db.Phase != tenant.Deprovisioned {
			live++
		}
	}
	if live >= tier.MaxInstances {
		return fmt.Errorf("%w: tier %q quota reached (%d instances)", ErrInvalid, tier.Name, tier.MaxInstances)
	}
	if _, dup := ts.DBs[spec.ID]; dup {
		return fmt.Errorf("%w: database %q already exists", ErrConflict, spec.ID)
	}
	if spec.Shape != nil {
		if err := spec.Shape.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalid, err)
		}
	}
	ts.DBs[spec.ID] = &dbState{
		ID:        spec.ID,
		Blueprint: spec.Blueprint,
		Plan:      plan,
		Phase:     tenant.Pending,
		Shape:     spec.Shape,
	}
	return nil
}

// DeleteDatabase marks a database for drain + deprovision at the next
// reconcile tick. Deleting one that is already draining is a conflict.
func (s *Service) DeleteDatabase(tenantID, dbID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts, ok := s.tenants[tenantID]
	if !ok {
		return fmt.Errorf("%w: tenant %q", ErrNotFound, tenantID)
	}
	db, ok := ts.DBs[dbID]
	if !ok {
		return fmt.Errorf("%w: database %q", ErrNotFound, dbID)
	}
	if db.Deleting {
		return fmt.Errorf("%w: database %q is already being deprovisioned", ErrConflict, dbID)
	}
	db.Deleting = true
	return nil
}

// ResizeDatabase requests a move to a different VM plan (up or down);
// the reconciler applies it as a re-blueprint with a tuner warm start.
func (s *Service) ResizeDatabase(tenantID, dbID, plan string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts, ok := s.tenants[tenantID]
	if !ok {
		return fmt.Errorf("%w: tenant %q", ErrNotFound, tenantID)
	}
	db, ok := ts.DBs[dbID]
	if !ok {
		return fmt.Errorf("%w: database %q", ErrNotFound, dbID)
	}
	if db.Deleting {
		return fmt.Errorf("%w: database %q is being deprovisioned", ErrConflict, dbID)
	}
	if _, err := cluster.TypeByName(plan); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	tier := s.cfg.Tiers[ts.Tenant.Tier]
	if !tier.AllowsPlan(plan) {
		return fmt.Errorf("%w: tier %q does not allow plan %q (allowed: %v)", ErrInvalid, tier.Name, plan, tier.AllowedPlans)
	}
	if plan == db.Plan && db.Pending == "" {
		return fmt.Errorf("%w: database %q is already on plan %q", ErrConflict, dbID, plan)
	}
	if db.Phase == tenant.Pending {
		// Not provisioned yet: just change the declaration.
		db.Plan = plan
		return nil
	}
	db.Pending = plan
	return nil
}

// sortedTenantIDs returns tenant IDs sorted — the reconciler's
// deterministic iteration order. Callers hold s.mu.
func (s *Service) sortedTenantIDsLocked() []string {
	ids := make([]string, 0, len(s.tenants))
	for id := range s.tenants {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func sortedDBIDs(ts *tenantState) []string {
	ids := make([]string, 0, len(ts.DBs))
	for id := range ts.DBs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// provisionLocked stamps one database out of its blueprint onto its
// shard. Callers hold s.mu.
func (s *Service) provisionLocked(ts *tenantState, db *dbState) error {
	bp := s.cfg.Blueprints[db.Blueprint]
	id := instanceID(ts.Tenant.ID, db.ID)
	db.Joins++
	db.Seed = s.instSeed(id, db.Joins)
	if err := s.coord.AddInstance(instanceSpec(id, db, bp)); err != nil {
		return err
	}
	if err := s.warmStartLocked(id, bp); err != nil {
		return err
	}
	tier := s.cfg.Tiers[ts.Tenant.Tier]
	db.Phase = tenant.WarmUp
	db.Warmup = tier.WarmupWindows
	s.provisions++
	s.m.provisions.Inc()
	return nil
}

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

// reconcileLocked drives observed membership toward desired state:
// remove drained databases, apply resizes, provision pending ones,
// count down warm-ups. One pass per Step, in sorted (tenant, database)
// order so side effects land in a deterministic sequence.
func (s *Service) reconcileLocked() error {
	start := time.Now()
	defer func() { s.m.reconcile.Observe(time.Since(start).Seconds()) }()

	for _, tid := range s.sortedTenantIDsLocked() {
		ts := s.tenants[tid]
		for _, did := range sortedDBIDs(ts) {
			db := ts.DBs[did]
			switch {
			case db.Deleting && db.Phase == tenant.Pending:
				// Never provisioned: nothing to drain.
				db.Phase = tenant.Deprovisioned
				delete(ts.DBs, did)
			case db.Deleting && db.Phase == tenant.Draining:
				// The final window has run; drain the fan-out and release.
				if err := s.coord.RemoveInstance(instanceID(tid, did)); err != nil {
					return fmt.Errorf("fleet: deprovision %s/%s: %w", tid, did, err)
				}
				db.Phase = tenant.Deprovisioned
				delete(ts.DBs, did)
				s.deprovisions++
				s.m.deprovisions.Inc()
			case db.Deleting:
				// WarmUp or Tuned: grant one final observation window so
				// in-flight samples land, then remove next tick.
				db.Phase = tenant.Draining
			case db.Pending != "":
				bp := s.cfg.Blueprints[db.Blueprint]
				id := instanceID(tid, did)
				db.Joins++
				db.Seed = s.instSeed(id, db.Joins)
				if err := s.coord.ResizeInstance(id, db.Pending, db.Seed, agentConfig(bp)); err != nil {
					return fmt.Errorf("fleet: resize %s/%s: %w", tid, did, err)
				}
				// A resized workload normally keeps its own history (the
				// warm start the paper already gets from shared tuners);
				// the hook only seeds when the history is empty.
				if err := s.warmStartLocked(id, bp); err != nil {
					return err
				}
				db.Plan = db.Pending
				db.Pending = ""
				db.Phase = tenant.WarmUp
				db.Warmup = s.cfg.Tiers[ts.Tenant.Tier].WarmupWindows
				s.resizes++
				s.m.resizes.Inc()
			case db.Phase == tenant.Pending:
				if err := s.provisionLocked(ts, db); err != nil {
					return fmt.Errorf("fleet: provision %s/%s: %w", tid, did, err)
				}
			case db.Phase == tenant.WarmUp:
				if db.Warmup > 0 {
					db.Warmup--
				}
				if db.Warmup == 0 {
					db.Phase = tenant.Tuned
				}
			}
		}
		// A deleted tenant lingers until its last database is drained.
		if ts.deleted && len(ts.DBs) == 0 {
			delete(s.tenants, tid)
		}
	}
	s.m.tenants.Set(float64(len(s.tenants)))
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
	ts, ok := s.tenants[tenantID]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: tenant %q", ErrNotFound, tenantID)
	}
	db, ok := ts.DBs[dbID]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: database %q", ErrNotFound, dbID)
	}
	if db.Phase == tenant.Pending {
		s.mu.Unlock()
		return fmt.Errorf("%w: database %q is not provisioned yet", ErrConflict, dbID)
	}
	if db.Deleting {
		s.mu.Unlock()
		return fmt.Errorf("%w: database %q is being deprovisioned", ErrConflict, dbID)
	}
	s.mu.Unlock()
	if _, ok := s.coord.Shard(toShard); !ok {
		return fmt.Errorf("%w: no shard %q in the fleet's shard map %v", ErrInvalid, toShard, s.coord.ShardNames())
	}
	s.stepMu.Lock()
	defer s.stepMu.Unlock()
	return s.coord.Rebalance(instanceID(tenantID, dbID), toShard)
}
