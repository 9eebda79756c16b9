package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"autodbaas/internal/checkpoint"
	"autodbaas/internal/tenant"
)

// controlSection is the fleet service's snapshot section, the last one
// of the coordinator's container.
const controlSection = "extra/fleet"

// tenantRecord is one tenant's row of the control-plane section.
type tenantRecord struct {
	Tenant  tenant.Tenant `json:"tenant"`
	Deleted bool          `json:"deleted,omitempty"`
	DBs     []dbState     `json:"dbs"`
}

// controlState is the serialized desired state of the fleet service:
// every tenant and database record, the live cohort in fleet onboarding
// order (which a restore cross-checks against the rebuilt shards), and
// the lifecycle totals.
type controlState struct {
	Order        []string       `json:"order"`
	Tenants      []tenantRecord `json:"tenants"`
	Provisions   int64          `json:"provisions_total"`
	Deprovisions int64          `json:"deprovisions_total"`
	Resizes      int64          `json:"resizes_total"`
	WarmHits     int64          `json:"warmstart_hits_total,omitempty"`
	WarmMisses   int64          `json:"warmstart_misses_total,omitempty"`
	WarmSeeded   int64          `json:"warmstart_samples_seeded_total,omitempty"`
}

// saveControlState encodes the control-plane section. Callers hold
// stepMu (every snapshot does), so desired state is stable.
func (s *Service) saveControlState() ([]byte, error) {
	order := s.coord.Instances()
	s.mu.Lock()
	defer s.mu.Unlock()
	ctl := controlState{
		Order:      order,
		WarmHits:   s.warmHits,
		WarmMisses: s.warmMisses,
		WarmSeeded: s.warmSeeded,
	}
	ctl.Provisions, ctl.Deprovisions, ctl.Resizes = s.model.Totals()
	for _, tid := range sortedKeys(s.model.tenants) {
		ts := s.model.tenants[tid]
		rec := tenantRecord{Tenant: ts.Tenant, Deleted: ts.deleted, DBs: []dbState{}}
		for _, did := range sortedKeys(ts.DBs) {
			rec.DBs = append(rec.DBs, *ts.DBs[did])
		}
		ctl.Tenants = append(ctl.Tenants, rec)
	}
	return json.Marshal(ctl)
}

// CheckpointNow writes a snapshot — the coordinator's fleet container,
// with every shard's container nested in it and the control-plane
// section last — to dir and refreshes dir/latest.ckpt. It waits for a
// running Step to finish.
func (s *Service) CheckpointNow(dir string) (string, error) {
	s.stepMu.Lock()
	defer s.stepMu.Unlock()
	return s.checkpoint(dir)
}

// checkpoint writes one snapshot. Callers hold stepMu.
func (s *Service) checkpoint(dir string) (string, error) {
	window := s.coord.Window()
	path, err := checkpoint.SaveFile(dir, window, func(w io.Writer) error {
		ctl, err := s.saveControlState()
		if err != nil {
			return err
		}
		return s.coord.Checkpoint(w, checkpoint.RawSection{Name: controlSection, Payload: ctl})
	})
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.ckptLastPath, s.ckptLastWindow = path, window
	s.mu.Unlock()
	return path, nil
}

// LastCheckpoint returns the path and window of the newest snapshot
// this service wrote ("" until it has written one).
func (s *Service) LastCheckpoint() (string, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ckptLastPath, s.ckptLastWindow
}

// RestoreLatest resumes a fleet service from dir/latest.ckpt. The
// receiver must be freshly built from the same Config (seed, tuners,
// catalogue, fault profile, shard map) as the service that wrote the
// snapshot.
func (s *Service) RestoreLatest(dir string) error {
	return s.RestoreFrom(filepath.Join(dir, "latest.ckpt"))
}

// RestoreFrom resumes from one snapshot file, read and verified once:
// the control-plane section rebuilds the service's desired state, and
// the same parsed sections go to the coordinator, whose shards rebuild
// their cohorts from their specs sections and overwrite every instance,
// tuner, director and repository section — leaving the fleet exactly
// where the snapshot was taken: same window, same membership
// generations, same fingerprint going forward.
func (s *Service) RestoreFrom(path string) error {
	s.stepMu.Lock()
	defer s.stepMu.Unlock()
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	_, sections, err := checkpoint.Parse(data)
	if err != nil {
		return err
	}
	raw, ok := sections[controlSection]
	if !ok {
		return fmt.Errorf("%w: snapshot has no fleet control-plane section (written by a bare engine?)", checkpoint.ErrManifest)
	}
	var ctl controlState
	if err := json.Unmarshal(raw, &ctl); err != nil {
		return fmt.Errorf("fleet: decode control-plane section: %w", err)
	}
	tenants := make(map[string]*tenantState, len(ctl.Tenants))
	for _, rec := range ctl.Tenants {
		if _, ok := s.cfg.Tiers[rec.Tenant.Tier]; !ok {
			return fmt.Errorf("fleet: snapshot tenant %q uses tier %q, absent from this catalogue", rec.Tenant.ID, rec.Tenant.Tier)
		}
		ts := &tenantState{Tenant: rec.Tenant, DBs: make(map[string]*dbState), deleted: rec.Deleted}
		for i := range rec.DBs {
			db := rec.DBs[i]
			if _, ok := s.cfg.Blueprints[db.Blueprint]; !ok {
				return fmt.Errorf("fleet: snapshot database %s/%s uses blueprint %q, absent from this catalogue", rec.Tenant.ID, db.ID, db.Blueprint)
			}
			ts.DBs[db.ID] = &db
		}
		tenants[rec.Tenant.ID] = ts
	}

	if n := len(s.coord.Instances()); n != 0 {
		return fmt.Errorf("fleet: restore into a non-empty service (%d instances); rebuild it first", n)
	}
	s.mu.Lock()
	declared := len(s.model.tenants)
	s.mu.Unlock()
	if declared != 0 {
		return fmt.Errorf("fleet: restore into a service with %d tenants declared; rebuild it first", declared)
	}
	if err := s.coord.RestoreSections(sections); err != nil {
		return err
	}
	// Cross-check the rebuilt cohort against the control plane's: every
	// recorded instance must be hosted somewhere.
	for _, id := range ctl.Order {
		if _, ok := s.coord.Assignment(id); !ok {
			return fmt.Errorf("fleet: restored engine does not host recorded instance %q", id)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.model.tenants = tenants
	s.model.provisions, s.model.deprovisions, s.model.resizes = ctl.Provisions, ctl.Deprovisions, ctl.Resizes
	s.warmHits, s.warmMisses, s.warmSeeded = ctl.WarmHits, ctl.WarmMisses, ctl.WarmSeeded
	s.m.tenants.Set(float64(len(tenants)))
	s.m.instances.Set(float64(len(ctl.Order)))
	return nil
}
