package fleet

import (
	"sort"

	"autodbaas/internal/knobs"
	"autodbaas/internal/safety"
	"autodbaas/internal/shard"
)

// DatabaseStatus is one database's externally visible state.
type DatabaseStatus struct {
	ID          string `json:"id"`
	Blueprint   string `json:"blueprint"`
	Plan        string `json:"plan"`
	Phase       string `json:"phase"`
	PendingPlan string `json:"pending_plan,omitempty"`
	Deleting    bool   `json:"deleting,omitempty"`
	Gen         int    `json:"gen,omitempty"`   // membership generation of the last (re-)join
	Shard       string `json:"shard,omitempty"` // hosting shard (once provisioned)
	// Safety is the safe-tuning gate's per-database snapshot (nil when
	// the gate is off, the instance is not yet provisioned, or its shard
	// is remote — see safetyStatus).
	Safety *safety.Status `json:"safety,omitempty"`
}

// TenantStatus is one tenant's externally visible state.
type TenantStatus struct {
	ID        string           `json:"id"`
	Name      string           `json:"name,omitempty"`
	Tier      string           `json:"tier"`
	Deleting  bool             `json:"deleting,omitempty"`
	Databases []DatabaseStatus `json:"databases"`
}

// Summary is the fleet-wide roll-up served at GET /v1/fleet.
type Summary struct {
	Window       int   `json:"window"`
	Generation   int   `json:"generation"`
	Tenants      int   `json:"tenants"`
	Instances    int   `json:"instances"`
	Provisions   int64 `json:"provisions_total"`
	Deprovisions int64 `json:"deprovisions_total"`
	Resizes      int64 `json:"resizes_total"`
	Samples      int   `json:"samples_total"`

	// Safe-tuning gate totals, merged across shards (zero when off).
	SafetyVetoes     int `json:"safety_vetoes_total,omitempty"`
	SafetyCanaryRuns int `json:"safety_canary_runs_total,omitempty"`
	SafetyRollbacks  int `json:"safety_rollbacks_total,omitempty"`
	SafetyRegressing int `json:"safety_regressing_applies_total,omitempty"`
}

// memberGens maps live instance IDs to their join generation. A
// best-effort view: an unreachable remote shard contributes nothing.
func (s *Service) memberGens() map[string]int {
	out := make(map[string]int)
	members, err := s.coord.Members()
	if err != nil {
		return out
	}
	for _, m := range members {
		out[m.ID] = m.Gen
	}
	return out
}

// statusLocked renders one tenant. Callers hold s.mu.
func (s *Service) statusLocked(ts *tenantState, gens map[string]int) TenantStatus {
	st := TenantStatus{
		ID:        ts.Tenant.ID,
		Name:      ts.Tenant.Name,
		Tier:      ts.Tenant.Tier,
		Deleting:  ts.deleted,
		Databases: []DatabaseStatus{},
	}
	for _, did := range sortedKeys(ts.DBs) {
		db := ts.DBs[did]
		id := instanceID(ts.Tenant.ID, db.ID)
		shardName, _ := s.coord.Assignment(id)
		row := DatabaseStatus{
			ID:          db.ID,
			Blueprint:   db.Blueprint,
			Plan:        db.Plan,
			Phase:       db.Phase.String(),
			PendingPlan: db.Pending,
			Deleting:    db.Deleting,
			Gen:         gens[id],
			Shard:       shardName,
		}
		if sst, ok := s.safetyStatus(shardName, id); ok {
			row.Safety = &sst
		}
		st.Databases = append(st.Databases, row)
	}
	return st
}

// safetyStatus reads one instance's safe-tuning gate snapshot from the
// director of the in-process shard hosting it. A remote shard's gate
// lives across the RPC boundary and the shard protocol carries no
// per-database status, so rows of -shard-map fleets omit it; fleet
// totals still flow through Counters into the Summary.
func (s *Service) safetyStatus(shardName, id string) (safety.Status, bool) {
	sh, _ := s.coord.Shard(shardName)
	l, ok := sh.(*shard.Local)
	if !ok {
		return safety.Status{}, false
	}
	return l.System().Director.SafetyStatus(id)
}

// GetTenant returns one tenant's status.
func (s *Service) GetTenant(id string) (TenantStatus, bool) {
	gens := s.memberGens()
	s.mu.Lock()
	defer s.mu.Unlock()
	ts, ok := s.model.tenants[id]
	if !ok {
		return TenantStatus{}, false
	}
	return s.statusLocked(ts, gens), true
}

// GetDatabase returns one database's status.
func (s *Service) GetDatabase(tenantID, dbID string) (DatabaseStatus, bool) {
	t, ok := s.GetTenant(tenantID)
	if !ok {
		return DatabaseStatus{}, false
	}
	for _, db := range t.Databases {
		if db.ID == dbID {
			return db, true
		}
	}
	return DatabaseStatus{}, false
}

// ListTenants returns every tenant's status, sorted by ID.
func (s *Service) ListTenants() []TenantStatus {
	gens := s.memberGens()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TenantStatus, 0, len(s.model.tenants))
	for _, tid := range sortedKeys(s.model.tenants) {
		out = append(out, s.statusLocked(s.model.tenants[tid], gens))
	}
	return out
}

// Summary returns the fleet-wide roll-up. Shard-side numbers are
// best-effort: an unreachable remote shard leaves Generation at zero.
func (s *Service) Summary() Summary {
	window := s.coord.Window()
	size := len(s.coord.Instances())
	gen, samples := 0, 0
	var sv, sc, sr, sg int
	if counters, err := s.coord.Counters(); err == nil {
		gen = counters.Generation
		samples = counters.Samples
		sv, sc = counters.SafetyVetoes, counters.SafetyCanaryRuns
		sr, sg = counters.SafetyRollbacks, counters.SafetyRegressing
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	provisions, deprovisions, resizes := s.model.Totals()
	return Summary{
		Window:           window,
		Generation:       gen,
		Samples:          samples,
		Tenants:          len(s.model.tenants),
		Instances:        size,
		Provisions:       provisions,
		Deprovisions:     deprovisions,
		Resizes:          resizes,
		SafetyVetoes:     sv,
		SafetyCanaryRuns: sc,
		SafetyRollbacks:  sr,
		SafetyRegressing: sg,
	}
}

// MemberPrint is one instance's slice of a Fingerprint.
type MemberPrint struct {
	ID            string
	Gen           int
	Plan          string
	Phase         string
	Config        knobs.Config
	MonitorPoints int
}

// Fingerprint captures everything the fleet determinism contract
// covers: the window and membership generation, control-plane totals,
// director counters, repository size, and per-member plan, phase,
// final configuration and monitor series length. Two runs of the same
// scripted lifecycle schedule must produce identical fingerprints at
// any parallelism, clean or faulted, across kill/restore.
type Fingerprint struct {
	Window       int
	Generation   int
	Provisions   int64
	Deprovisions int64
	Resizes      int64
	Samples      int

	TuningRequests  int
	Recommendations int
	ApplyFailures   int
	PlanUpgrades    int

	Members []MemberPrint
}

// Fingerprint computes the current fleet fingerprint from the
// coordinator's digest, merged across shards.
func (s *Service) Fingerprint() (Fingerprint, error) {
	ffp, err := s.coord.Fingerprint()
	if err != nil {
		return Fingerprint{}, err
	}
	efp := ffp.Merged()
	fp := Fingerprint{
		Window:          ffp.Window,
		Generation:      efp.Counters.Generation,
		Samples:         efp.Counters.Samples,
		TuningRequests:  efp.Counters.TuningRequests,
		Recommendations: efp.Counters.Recommendations,
		ApplyFailures:   efp.Counters.ApplyFailures,
		PlanUpgrades:    efp.Counters.PlanUpgrades,
	}

	phases := make(map[string]string)
	s.mu.Lock()
	fp.Provisions, fp.Deprovisions, fp.Resizes = s.model.Totals()
	for _, ts := range s.model.tenants {
		for _, db := range ts.DBs {
			phases[instanceID(ts.Tenant.ID, db.ID)] = db.Phase.String()
		}
	}
	s.mu.Unlock()

	for _, m := range efp.Members {
		fp.Members = append(fp.Members, MemberPrint{
			ID:            m.ID,
			Gen:           m.Gen,
			Plan:          efp.Plans[m.ID],
			Phase:         phases[m.ID],
			Config:        efp.Configs[m.ID],
			MonitorPoints: efp.MonitorPoints[m.ID],
		})
	}
	sort.Slice(fp.Members, func(i, j int) bool { return fp.Members[i].ID < fp.Members[j].ID })
	return fp, nil
}
