package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"

	"autodbaas/internal/cluster"
	"autodbaas/internal/tenant"
	"autodbaas/internal/workload"
)

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

// Model is the fleet's desired-state model: every tenant and database
// record, the checks of the five API mutations, and the reconcile
// pass's phase machine (Pending → WarmUp → Tuned, Draining, resize,
// tenant removal) with its lifecycle totals. It owns no engine. A
// Service drives its Model under its lock and performs the engine side
// of each transition; a bare Model (NewModel) performs none, which is
// how scenario.Compile dry-runs a schedule against the very rules the
// service enforces. A Model is not safe for concurrent use.
type Model struct {
	seed       int64 // root of every per-instance engine seed
	tiers      map[string]tenant.Tier
	blueprints map[string]tenant.Blueprint
	tenants    map[string]*tenantState

	provisions   int64
	deprovisions int64
	resizes      int64

	fx effects
}

// effects is the engine side of a reconcile pass. Each call runs after
// the record's join count and seed are bumped and before its phase
// moves, so a failed call leaves the record in its old phase.
type effects interface {
	provision(id string, db *dbState, bp tenant.Blueprint) error
	resize(id string, db *dbState, bp tenant.Blueprint) error
	deprovision(id string) error
}

// noEngine is a bare Model's engine: every side effect succeeds.
type noEngine struct{}

func (noEngine) provision(string, *dbState, tenant.Blueprint) error { return nil }
func (noEngine) resize(string, *dbState, tenant.Blueprint) error    { return nil }
func (noEngine) deprovision(string) error                           { return nil }

// NewModel returns an empty desired-state model over a service
// catalogue, with no engine behind it.
func NewModel(tiers map[string]tenant.Tier, blueprints map[string]tenant.Blueprint) *Model {
	return &Model{tiers: tiers, blueprints: blueprints, tenants: make(map[string]*tenantState), fx: noEngine{}}
}

// Totals returns the lifecycle totals: databases provisioned,
// deprovisioned and resized so far. provisions - deprovisions is the
// live instance count.
func (m *Model) Totals() (provisions, deprovisions, resizes int64) {
	return m.provisions, m.deprovisions, m.resizes
}

// instanceID forms the core.System instance ID of one database.
func instanceID(tenantID, dbID string) string { return tenantID + "/" + dbID }

// instSeed derives the deterministic engine seed for the join-th
// (re-)provision of an instance: root seed XOR fnv64a(id#join). It
// depends only on names and join counts, never on wall time or
// interleaving.
func (m *Model) instSeed(id string, join int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s#%d", id, join)
	return m.seed ^ int64(h.Sum64())
}

func sortedKeys[V any](byID map[string]V) []string {
	ids := make([]string, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// tenant finds a tenant record.
func (m *Model) tenant(id string) (*tenantState, error) {
	ts, ok := m.tenants[id]
	if !ok {
		return nil, fmt.Errorf("%w: unknown tenant %q", ErrNotFound, id)
	}
	return ts, nil
}

// database finds a database record and its tenant.
func (m *Model) database(tenantID, dbID string) (*tenantState, *dbState, error) {
	ts, err := m.tenant(tenantID)
	if err != nil {
		return nil, nil, err
	}
	db, ok := ts.DBs[dbID]
	if !ok {
		return nil, nil, fmt.Errorf("%w: unknown database %q", ErrNotFound, dbID)
	}
	return ts, db, nil
}

// checkPlan admits a VM plan that exists and that the tenant's tier
// allows.
func (m *Model) checkPlan(ts *tenantState, plan string) error {
	if _, err := cluster.TypeByName(plan); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	tier := m.tiers[ts.Tenant.Tier]
	if !tier.AllowsPlan(plan) {
		return fmt.Errorf("%w: tier %q does not allow plan %q (allowed: %v)", ErrInvalid, tier.Name, plan, tier.AllowedPlans)
	}
	return nil
}

// CreateTenant declares a tenant. The tier must exist.
func (m *Model) CreateTenant(t tenant.Tenant) error {
	if !tenant.ValidID(t.ID) {
		return fmt.Errorf("%w: tenant ID %q (want %s)", ErrInvalid, t.ID, "lowercase alphanumeric with ._-")
	}
	if _, ok := m.tiers[t.Tier]; !ok {
		return fmt.Errorf("%w: unknown tier %q", ErrNotFound, t.Tier)
	}
	if _, dup := m.tenants[t.ID]; dup {
		return fmt.Errorf("%w: tenant %q already exists", ErrConflict, t.ID)
	}
	m.tenants[t.ID] = &tenantState{Tenant: t, DBs: make(map[string]*dbState)}
	return nil
}

// DeleteTenant marks every database of the tenant for deletion; the
// tenant record disappears once the reconciler has drained them all. A
// tenant with no databases goes away immediately.
func (m *Model) DeleteTenant(id string) error {
	ts, err := m.tenant(id)
	if err != nil {
		return err
	}
	if len(ts.DBs) == 0 {
		delete(m.tenants, id)
		return nil
	}
	ts.deleted = true
	for _, db := range ts.DBs {
		db.Deleting = true
	}
	return nil
}

// CreateDatabase declares a database. Provisioning happens at the next
// reconcile pass.
func (m *Model) CreateDatabase(tenantID string, spec DatabaseSpec) error {
	if !tenant.ValidID(spec.ID) {
		return fmt.Errorf("%w: database ID %q", ErrInvalid, spec.ID)
	}
	ts, err := m.tenant(tenantID)
	if err != nil {
		return err
	}
	if ts.deleted {
		return fmt.Errorf("%w: tenant %q is being deprovisioned", ErrConflict, tenantID)
	}
	bp, ok := m.blueprints[spec.Blueprint]
	if !ok {
		return fmt.Errorf("%w: unknown blueprint %q", ErrNotFound, spec.Blueprint)
	}
	plan := spec.Plan
	if plan == "" {
		plan = bp.Plan
	}
	if err := m.checkPlan(ts, plan); err != nil {
		return err
	}
	// A record leaves the map the moment it is deprovisioned, so every
	// record counts against the quota.
	if tier := m.tiers[ts.Tenant.Tier]; len(ts.DBs) >= tier.MaxInstances {
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
// reconcile pass. Deleting one that is already draining is a conflict.
func (m *Model) DeleteDatabase(tenantID, dbID string) error {
	_, db, err := m.database(tenantID, dbID)
	if err != nil {
		return err
	}
	if db.Deleting {
		return fmt.Errorf("%w: database %q is already being deprovisioned", ErrConflict, dbID)
	}
	db.Deleting = true
	return nil
}

// ResizeDatabase requests a move to a different VM plan (up or down);
// the reconciler applies it as a re-blueprint with a tuner warm start.
func (m *Model) ResizeDatabase(tenantID, dbID, plan string) error {
	ts, db, err := m.database(tenantID, dbID)
	if err != nil {
		return err
	}
	if db.Deleting {
		return fmt.Errorf("%w: database %q is being deprovisioned", ErrConflict, dbID)
	}
	if err := m.checkPlan(ts, plan); err != nil {
		return err
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

// Reconcile runs one pass of the phase machine: remove drained
// databases, apply resizes, provision pending ones, count down
// warm-ups, and drop deleted tenants whose last database is gone. It
// walks (tenant, database) in sorted order so side effects land in a
// deterministic sequence, and stops at the first failed side effect.
func (m *Model) Reconcile() error {
	for _, tid := range sortedKeys(m.tenants) {
		ts := m.tenants[tid]
		for _, did := range sortedKeys(ts.DBs) {
			db := ts.DBs[did]
			id := instanceID(tid, did)
			switch {
			case db.Deleting && db.Phase == tenant.Pending:
				// Never provisioned: nothing to drain.
				delete(ts.DBs, did)
			case db.Deleting && db.Phase == tenant.Draining:
				// The final window has run; drain the fan-out and release.
				if err := m.fx.deprovision(id); err != nil {
					return fmt.Errorf("fleet: deprovision %s: %w", id, err)
				}
				delete(ts.DBs, did)
				m.deprovisions++
			case db.Deleting:
				// WarmUp or Tuned: grant one final observation window so
				// in-flight samples land, then remove next pass.
				db.Phase = tenant.Draining
			case db.Pending != "":
				db.Joins++
				db.Seed = m.instSeed(id, db.Joins)
				if err := m.fx.resize(id, db, m.blueprints[db.Blueprint]); err != nil {
					return fmt.Errorf("fleet: resize %s: %w", id, err)
				}
				db.Plan, db.Pending = db.Pending, ""
				db.Phase, db.Warmup = tenant.WarmUp, m.tiers[ts.Tenant.Tier].WarmupWindows
				m.resizes++
			case db.Phase == tenant.Pending:
				db.Joins++
				db.Seed = m.instSeed(id, db.Joins)
				if err := m.fx.provision(id, db, m.blueprints[db.Blueprint]); err != nil {
					return fmt.Errorf("fleet: provision %s: %w", id, err)
				}
				db.Phase, db.Warmup = tenant.WarmUp, m.tiers[ts.Tenant.Tier].WarmupWindows
				m.provisions++
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
			delete(m.tenants, tid)
		}
	}
	return nil
}
