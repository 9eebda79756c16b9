package scenario

import (
	"fmt"
	"sort"
	"time"

	"autodbaas/internal/fleet"
	"autodbaas/internal/tenant"
	"autodbaas/internal/workload"
)

// Action kinds in a compiled schedule.
const (
	ActCreateTenant   = "create-tenant"
	ActDeleteTenant   = "delete-tenant"
	ActCreateDatabase = "create-database"
	ActDeleteDatabase = "delete-database"
	ActResize         = "resize"
)

// Action is one control-plane mutation pinned to a window index.
// Actions apply between ticks — before the reconcile of the window
// they name — exactly as REST mutations land between serve-loop steps.
type Action struct {
	Window int    `json:"window"`
	Kind   string `json:"kind"`
	Tenant string `json:"tenant"`

	// Tier (create-tenant), Spec (create-database), Database
	// (delete-database, resize), Plan (resize).
	Tier     string             `json:"tier,omitempty"`
	Database string             `json:"database,omitempty"`
	Plan     string             `json:"plan,omitempty"`
	Spec     fleet.DatabaseSpec `json:"spec,omitempty"`
}

// Plan is a compiled scenario: the windowed action schedule plus the
// catalogue the fleet service must be built with. It is a pure
// function of the document — no clocks, no randomness — so the same
// file always replays the same campaign.
type Plan struct {
	Scenario *Scenario
	Windows  int
	Window   time.Duration

	// Actions are sorted by (window, declaration order).
	Actions []Action

	// Tiers and Blueprints merge the scenario's templates over the
	// built-in catalogue.
	Tiers      map[string]tenant.Tier
	Blueprints map[string]tenant.Blueprint

	// PeakInstances and TotalProvisions come from the compile-time
	// dry-run — a capacity preview before anything is built.
	PeakInstances   int
	TotalProvisions int
}

// Compile turns a parsed scenario into a runnable plan. Beyond the
// structural checks Parse already did, Compile expands onboarding
// waves and replays the whole schedule through the fleet's own
// desired-state model (IDs, quotas, duplicates, tier/plan legality,
// delete/resize lifecycle ordering), so a scenario that would fail
// mid-run is rejected here — before any fleet exists to mutate.
func (sc *Scenario) Compile() (*Plan, error) {
	p := &Plan{
		Scenario:   sc,
		Window:     sc.Window,
		Windows:    int(sc.Duration / sc.Window),
		Tiers:      tenant.DefaultTiers(),
		Blueprints: tenant.DefaultBlueprints(),
	}
	for _, bp := range sc.Blueprints {
		p.Blueprints[bp.Name] = bp
	}

	windowMin := int(sc.Window / time.Minute)
	// shapeAt pins a load shape with the join-window offset: a database
	// provisioned at window w starts its own virtual clock at SimEpoch,
	// so its shape must be advanced by w windows of scenario time.
	shapeAt := func(sh workload.Shape, window int) *workload.Shape {
		if sh.Empty() {
			return nil
		}
		out := sh
		out.OffsetMin = window * windowMin
		out.Terms = append([]workload.Term(nil), sh.Terms...)
		return &out
	}

	windowOf := func(at time.Duration, what string) (int, error) {
		if at%sc.Window != 0 {
			return 0, fmt.Errorf("%s at %s is not on a %s window boundary", what, at, sc.Window)
		}
		w := int(at / sc.Window)
		if w >= p.Windows {
			return 0, fmt.Errorf("%s at %s is past the scenario end (%s)", what, at, sc.Duration)
		}
		return w, nil
	}

	// Initial tenants land at window 0.
	for _, t := range sc.Tenants {
		p.Actions = append(p.Actions, Action{Kind: ActCreateTenant, Tenant: t.ID, Tier: t.Tier})
		for _, db := range t.Databases {
			p.Actions = append(p.Actions, Action{
				Kind:   ActCreateDatabase,
				Tenant: t.ID,
				Spec: fleet.DatabaseSpec{
					ID:        db.ID,
					Blueprint: db.Blueprint,
					Plan:      db.Plan,
					Shape:     shapeAt(db.Load, 0),
				},
			})
		}
	}

	for i, ev := range sc.Events {
		what := fmt.Sprintf("event %d (%s)", i+1, ev.Kind)
		w, err := windowOf(ev.At, what)
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		switch ev.Kind {
		case EvCreateTenant:
			p.Actions = append(p.Actions, Action{Window: w, Kind: ActCreateTenant, Tenant: ev.Tenant, Tier: ev.Tier})
		case EvDeleteTenant:
			p.Actions = append(p.Actions, Action{Window: w, Kind: ActDeleteTenant, Tenant: ev.Tenant})
		case EvCreateDatabase:
			p.Actions = append(p.Actions, Action{
				Window: w, Kind: ActCreateDatabase, Tenant: ev.Tenant,
				Spec: fleet.DatabaseSpec{
					ID:        ev.Database,
					Blueprint: ev.Blueprint,
					Plan:      ev.Plan,
					Shape:     shapeAt(ev.Load, w),
				},
			})
		case EvDeleteDatabase:
			p.Actions = append(p.Actions, Action{Window: w, Kind: ActDeleteDatabase, Tenant: ev.Tenant, Database: ev.Database})
		case EvResize:
			p.Actions = append(p.Actions, Action{Window: w, Kind: ActResize, Tenant: ev.Tenant, Database: ev.Database, Plan: ev.Plan})
		case EvOnboardWave:
			if ev.Every%sc.Window != 0 {
				return nil, fmt.Errorf("scenario: %s: stagger %s is not a whole number of %s windows", what, ev.Every, sc.Window)
			}
			if ev.OffboardAfter%sc.Window != 0 {
				return nil, fmt.Errorf("scenario: %s: offboard-after %s is not a whole number of %s windows", what, ev.OffboardAfter, sc.Window)
			}
			for n := 0; n < ev.Count; n++ {
				join := ev.At + time.Duration(n)*ev.Every
				jw, err := windowOf(join, fmt.Sprintf("%s tenant %d", what, n))
				if err != nil {
					return nil, fmt.Errorf("scenario: %w", err)
				}
				tid := fmt.Sprintf("%s-%02d", ev.Prefix, n)
				p.Actions = append(p.Actions, Action{Window: jw, Kind: ActCreateTenant, Tenant: tid, Tier: ev.Tier})
				for k := 0; k < ev.Databases; k++ {
					p.Actions = append(p.Actions, Action{
						Window: jw, Kind: ActCreateDatabase, Tenant: tid,
						Spec: fleet.DatabaseSpec{
							ID:        fmt.Sprintf("db-%02d", k),
							Blueprint: ev.Blueprint,
							Plan:      ev.Plan,
							Shape:     shapeAt(ev.Load, jw),
						},
					})
				}
				if ev.OffboardAfter > 0 {
					lw, err := windowOf(join+ev.OffboardAfter, fmt.Sprintf("%s offboard %d", what, n))
					if err != nil {
						return nil, fmt.Errorf("scenario: %w", err)
					}
					p.Actions = append(p.Actions, Action{Window: lw, Kind: ActDeleteTenant, Tenant: tid})
				}
			}
		}
	}

	sort.SliceStable(p.Actions, func(i, j int) bool { return p.Actions[i].Window < p.Actions[j].Window })

	if err := p.dryRun(); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return p, nil
}

// dryRun replays the schedule through the fleet's own desired-state
// model — the mutation checks and reconcile phase machine a
// fleet.Service runs, minus the engine — so every scenario the fleet
// would reject mid-run is rejected before a fleet is built. The replay
// also records the capacity preview.
func (p *Plan) dryRun() error {
	model := fleet.NewModel(p.Tiers, p.Blueprints)
	byWindow := map[int][]Action{}
	for _, a := range p.Actions {
		byWindow[a.Window] = append(byWindow[a.Window], a)
	}
	for w := 0; w < p.Windows; w++ {
		for _, a := range byWindow[w] {
			if err := a.apply(model); err != nil {
				return fmt.Errorf("window %d: %s %s: %w", w, a.Kind, a.Tenant, err)
			}
		}
		if err := model.Reconcile(); err != nil {
			return fmt.Errorf("window %d: %w", w, err)
		}
		provisions, deprovisions, _ := model.Totals()
		p.PeakInstances = max(p.PeakInstances, int(provisions-deprovisions))
		p.TotalProvisions = int(provisions)
	}
	if p.TotalProvisions == 0 {
		return fmt.Errorf("schedule never provisions a database")
	}
	return nil
}

// desiredState is what an action mutates: a live fleet.Service or the
// dry run's bare fleet.Model.
type desiredState interface {
	CreateTenant(tenant.Tenant) error
	DeleteTenant(id string) error
	CreateDatabase(tenantID string, spec fleet.DatabaseSpec) error
	DeleteDatabase(tenantID, dbID string) error
	ResizeDatabase(tenantID, dbID, plan string) error
}

// apply replays one action against a fleet's desired state.
func (a Action) apply(svc desiredState) error {
	switch a.Kind {
	case ActCreateTenant:
		return svc.CreateTenant(tenant.Tenant{ID: a.Tenant, Tier: a.Tier})
	case ActDeleteTenant:
		return svc.DeleteTenant(a.Tenant)
	case ActCreateDatabase:
		return svc.CreateDatabase(a.Tenant, a.Spec)
	case ActDeleteDatabase:
		return svc.DeleteDatabase(a.Tenant, a.Database)
	case ActResize:
		return svc.ResizeDatabase(a.Tenant, a.Database, a.Plan)
	}
	return fmt.Errorf("scenario: unknown action kind %q", a.Kind)
}
