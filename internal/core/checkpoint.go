package core

import (
	"fmt"
	"io"

	"autodbaas/internal/checkpoint"
)

// Windows returns how many fleet steps the system has completed. The
// counter rides the snapshot manifest, so a restored system continues
// the window numbering of the run that wrote the checkpoint.
func (s *System) Windows() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.windows
}

// codecView assembles the checkpoint codec's handle set from the live
// system. The fleet is listed in onboarding order — the same order Step
// merges in — so snapshot sections are deterministic.
func (s *System) codecView() checkpoint.System {
	s.mu.Lock()
	view := checkpoint.System{
		Window:       s.windows,
		Generation:   s.generation,
		Orchestrator: s.Orchestrator,
		DFA:          s.DFA,
		Director:     s.Director,
		Repository:   s.Repository,
		Tuners:       s.Tuners,
		Faults:       s.faults,
		Extras:       append([]checkpoint.Extra(nil), s.ckptExtras...),
	}
	for _, id := range s.order {
		view.Fleet = append(view.Fleet, checkpoint.FleetMember{
			ID:      id,
			Gen:     s.memberGens[id],
			Agent:   s.agents[id],
			Monitor: s.monitors[id],
		})
	}
	s.mu.Unlock()
	return view
}

// RegisterCheckpointExtra attaches an auxiliary snapshot section
// ("extra/<name>") contributed by a subsystem layered on top of the
// System — the fleet service's control-plane state, for example. save
// runs on every Checkpoint; restore, when non-nil, runs at the end of
// Restore with the section payload. Registering the same name again
// replaces the previous hooks.
func (s *System) RegisterCheckpointExtra(name string, save func() ([]byte, error), restore func([]byte) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, ex := range s.ckptExtras {
		if ex.Name == name {
			s.ckptExtras[i] = checkpoint.Extra{Name: name, Save: save, Restore: restore}
			return
		}
	}
	s.ckptExtras = append(s.ckptExtras, checkpoint.Extra{Name: name, Save: save, Restore: restore})
}

// Checkpoint serializes the system's entire mutable state into w (see
// Snapshot).
func (s *System) Checkpoint(w io.Writer) error {
	c, err := s.Snapshot()
	if err != nil {
		return err
	}
	_, err = c.WriteTo(w)
	return err
}

// Snapshot stages the system's entire mutable state as a checkpoint
// container. The repository releases its held samples first, so the
// snapshot sits on a clean window boundary; call it between Steps,
// never concurrently with one.
func (s *System) Snapshot() (*checkpoint.Container, error) {
	s.Repository.Flush()
	return checkpoint.Encode(s.codecView())
}

// Restore loads a snapshot into this system, which must be freshly
// rebuilt with the same construction parameters (instance specs, seeds,
// tuner fleet, options, fault profile) as the system that wrote it —
// the rebuild-then-restore contract. On success the window counter
// resumes from the snapshot and stepping forward reproduces the
// uninterrupted run bit-for-bit.
func (s *System) Restore(r io.Reader) error {
	man, sections, err := checkpoint.Inspect(r)
	if err != nil {
		return err
	}
	return s.RestoreSections(man, sections)
}

// RestoreSections is Restore over a container already read and
// verified by checkpoint.Parse, so a caller holding the snapshot in
// memory hands its sections over instead of having them re-read.
func (s *System) RestoreSections(man checkpoint.Manifest, sections map[string][]byte) error {
	if err := checkpoint.Restore(man, sections, s.codecView()); err != nil {
		return err
	}
	s.mu.Lock()
	s.windows = man.Window
	s.generation = man.Generation
	for _, im := range man.Instances {
		s.memberGens[im.ID] = im.Gen
	}
	s.mu.Unlock()
	return nil
}

// ExportInstanceSection serializes one live member's full state — the
// tuning agent with its embedded TDE, every node engine (virtual clock
// and PRNG positions included) and the monitor series — in the snapshot
// container's "instance/<id>" section format, plus the member's
// topology pin. The repository releases its held samples first, so
// every sample the instance uploaded has reached the tuners and its training
// history stays behind with this system. This is the shard runtime's
// migration export: rebalancing an instance between shards is exactly
// checkpoint-out here, restore-in via ImportInstanceSection there.
func (s *System) ExportInstanceSection(id string) ([]byte, checkpoint.InstanceMeta, error) {
	s.Repository.Flush()
	s.mu.Lock()
	a, ok := s.agents[id]
	mon := s.monitors[id]
	gen := s.memberGens[id]
	s.mu.Unlock()
	if !ok {
		return nil, checkpoint.InstanceMeta{}, fmt.Errorf("core: no agent for %s", id)
	}
	raw, meta := checkpoint.EncodeInstance(checkpoint.FleetMember{ID: id, Gen: gen, Agent: a, Monitor: mon})
	return raw, meta, nil
}

// ImportInstanceSection restores an exported instance section onto a
// member that was just (re-)provisioned into this system via
// AddInstance with the same spec — the rebuild-then-restore contract at
// single-instance scope. The payload must match the live member's
// topology pin (a mismatch fails with a named-instance error before
// any state mutates), and the imported configuration is persisted as
// the orchestrator's new source of truth, exactly as a resize would.
// Call it between Steps, never concurrently with one.
func (s *System) ImportInstanceSection(id string, meta checkpoint.InstanceMeta, payload []byte) error {
	s.mu.Lock()
	a, ok := s.agents[id]
	mon := s.monitors[id]
	gen := s.memberGens[id]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: no agent for %s", id)
	}
	fm := checkpoint.FleetMember{ID: id, Gen: gen, Agent: a, Monitor: mon}
	if err := checkpoint.DecodeInstance(fm, meta, payload); err != nil {
		return err
	}
	return s.Orchestrator.PersistConfig(id, a.Instance().Replica.Master().Config())
}
