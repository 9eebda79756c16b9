package shard

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"autodbaas/internal/checkpoint"
	"autodbaas/internal/core"
	"autodbaas/internal/faults"
	"autodbaas/internal/knobs"
	"autodbaas/internal/tuner"
	"autodbaas/internal/tuner/bo"
)

// specsExtra is the checkpoint extra section ("extra/" + specsExtra)
// holding the shard's declarative instance specs in onboarding order.
// It is what lets a restarted worker rebuild its cohort from the
// snapshot alone: Restore inspects the container, re-provisions every
// spec into a fresh system, then reads the snapshot into it — the
// rebuild-then-restore contract, self-contained per shard.
const specsExtra = "shard/specs"

// Local is the in-process Shard: one full vertical slice of the control
// plane — orchestrator, DFA, director, repository, tuner pool — owning
// one cohort. It is the same machinery a single-process deployment
// runs; the coordinator holds one Local per shard (or a Remote proxying
// to a Local inside a worker process) and merges across them.
type Local struct {
	cfg Config
	// pool supplies the tuner fleet and fault injector of every system
	// the shard builds: fresh ones from cfg, or the caller's (NewLocalWith).
	pool func() ([]tuner.Tuner, *faults.Injector, error)

	mu    sync.Mutex
	sys   *core.System
	specs []InstanceSpec // onboarding order, parallel to sys.Members()
}

// NewLocal builds an empty shard from its declarative config.
func NewLocal(cfg Config) (*Local, error) {
	l := &Local{cfg: cfg}
	l.pool = l.configPool
	return l.init()
}

// NewLocalWith builds an empty shard around a caller-built tuner fleet
// and fault injector (nil: no chaos) in place of the ones cfg.Tuner and
// cfg.FaultProfile declare; cfg still names the shard and sets its step
// parallelism and safety gate. Restore reuses the same tuners and
// injector — the snapshot overwrites their state — so decorators the
// caller wrapped around them stay in place. Such a shard has no
// declarative twin: a worker process rebuilds only what a Config says.
func NewLocalWith(cfg Config, injector *faults.Injector, tuners ...tuner.Tuner) (*Local, error) {
	l := &Local{cfg: cfg}
	l.pool = func() ([]tuner.Tuner, *faults.Injector, error) { return tuners, injector, nil }
	return l.init()
}

func (l *Local) init() (*Local, error) {
	if l.cfg.Name == "" {
		return nil, fmt.Errorf("shard: config needs a name")
	}
	sys, err := l.buildSystem()
	if err != nil {
		return nil, err
	}
	l.sys = sys
	return l, nil
}

// buildSystem assembles a fresh core.System from the shard's pool and
// config — the construction half of the rebuild-then-restore contract,
// shared by the constructors and Restore so both produce bit-for-bit
// the same layout.
func (l *Local) buildSystem() (*core.System, error) {
	tuners, injector, err := l.pool()
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystemWithOptions(core.Options{Parallelism: l.cfg.Parallelism, Faults: injector, Safety: l.cfg.Safety}, tuners...)
	if err != nil {
		return nil, fmt.Errorf("shard %s: %w", l.cfg.Name, err)
	}
	sys.RegisterCheckpointExtra(specsExtra, l.saveSpecs, nil)
	return sys, nil
}

// configPool builds a fresh tuner fleet and fault injector from the
// declarative config.
func (l *Local) configPool() ([]tuner.Tuner, *faults.Injector, error) {
	tc := l.cfg.Tuner
	count := tc.Count
	if count <= 0 {
		count = 1
	}
	seed := tc.Seed
	if seed == 0 {
		seed = l.cfg.Seed
	}
	engine := knobs.Engine(tc.Engine)
	if engine == "" {
		engine = knobs.Postgres
	}
	candidates := tc.Candidates
	if candidates <= 0 {
		candidates = 60
	}
	maxFit := tc.MaxSamplesPerFit
	if maxFit <= 0 {
		maxFit = 60
	}
	beta := tc.UCBBeta
	if beta == 0 {
		beta = 0.5
	}
	tuners := make([]tuner.Tuner, 0, count)
	for i := 0; i < count; i++ {
		t, err := bo.New(bo.Options{Engine: engine, Candidates: candidates, MaxSamplesPerFit: maxFit, UCBBeta: beta, Seed: seed + int64(i)})
		if err != nil {
			return nil, nil, fmt.Errorf("shard %s: %w", l.cfg.Name, err)
		}
		tuners = append(tuners, t)
	}
	var injector *faults.Injector
	if l.cfg.FaultProfile != "" {
		prof, err := faults.ParseProfile(l.cfg.FaultProfile)
		if err != nil {
			return nil, nil, fmt.Errorf("shard %s: %w", l.cfg.Name, err)
		}
		fseed := l.cfg.FaultSeed
		if fseed == 0 {
			fseed = l.cfg.Seed
		}
		injector = faults.New(fseed, prof)
	}
	return tuners, injector, nil
}

func (l *Local) saveSpecs() ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return json.Marshal(l.specs)
}

// Name implements Shard.
func (l *Local) Name() string { return l.cfg.Name }

// System exposes the underlying deployment for in-process callers
// (status endpoints, tests). Remote shards have no equivalent. Restore
// swaps in a rebuilt System, so hold on to the result only until then;
// the shard's own methods reach it through here too.
func (l *Local) System() *core.System {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sys
}

// Specs returns the cohort's declarative specs in onboarding order.
func (l *Local) Specs() []InstanceSpec {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]InstanceSpec(nil), l.specs...)
}

// AddInstance implements Shard: it materializes the declarative spec —
// workload generator, provision spec, agent options — and onboards the
// member, recording the spec for the snapshot's rebuild manifest.
func (l *Local) AddInstance(spec InstanceSpec) error {
	cs, err := spec.CoreSpec()
	if err != nil {
		return err
	}
	if _, err := l.System().AddInstance(cs); err != nil {
		return err
	}
	l.mu.Lock()
	l.specs = append(l.specs, spec)
	l.mu.Unlock()
	return nil
}

// RemoveInstance implements Shard.
func (l *Local) RemoveInstance(id string) error {
	if err := l.System().RemoveInstance(id); err != nil {
		return err
	}
	l.mu.Lock()
	for i, sp := range l.specs {
		if sp.ID == id {
			l.specs = append(l.specs[:i], l.specs[i+1:]...)
			break
		}
	}
	l.mu.Unlock()
	return nil
}

// ResizeInstance implements Shard, keeping the recorded spec in step so
// a snapshot taken after the resize rebuilds the post-resize cohort.
func (l *Local) ResizeInstance(id, plan string, seed int64, agentCfg AgentConfig) error {
	if _, err := l.System().ResizeInstance(id, plan, seed, agentCfg.Options()); err != nil {
		return err
	}
	l.mu.Lock()
	for i := range l.specs {
		if l.specs[i].ID == id {
			l.specs[i].Plan = plan
			l.specs[i].Seed = seed
			l.specs[i].Agent = agentCfg
			break
		}
	}
	l.mu.Unlock()
	return nil
}

// Members implements Shard.
func (l *Local) Members() ([]core.Member, error) {
	return l.System().Members(), nil
}

// Step implements Shard. The rich per-instance result (window stats,
// raw TDE events) stays inside the shard; what crosses the boundary is
// the serializable digest — raw events can carry NaN entropy values,
// which JSON cannot.
func (l *Local) Step(dur time.Duration) (StepResult, error) {
	sys := l.System()
	res := sys.Step(dur)
	return StepDigest(sys.Windows(), res), nil
}

// Counters implements Shard.
func (l *Local) Counters() (Counters, error) {
	return CountersOf(l.System()), nil
}

// Fingerprint implements Shard.
func (l *Local) Fingerprint() (Fingerprint, error) {
	return FingerprintOf(l.System()), nil
}

// Checkpoint implements Shard: the full ADBC container for this shard's
// slice of the fleet, specs extra included.
func (l *Local) Checkpoint() ([]byte, error) {
	c, err := l.snapshot()
	if err != nil {
		return nil, err
	}
	b, err := c.Bytes()
	if err != nil {
		return nil, fmt.Errorf("shard %s: %w", l.cfg.Name, err)
	}
	return b, nil
}

// snapshot stages the shard's container without joining it — what the
// coordinator nests in a fleet snapshot.
func (l *Local) snapshot() (*checkpoint.Container, error) {
	c, err := l.System().Snapshot()
	if err != nil {
		return nil, fmt.Errorf("shard %s: %w", l.cfg.Name, err)
	}
	return c, nil
}

// Restore implements Shard. The snapshot is self-contained: its specs
// extra names the cohort, so the shard rebuilds a fresh system, re-
// provisions every spec, and hands the verified sections to the
// rebuild. The previous system is discarded only after the restore
// succeeds, so a corrupt snapshot leaves the shard untouched (a shard
// built by NewLocalWith shares its tuners and injector with the
// rebuild, so a snapshot that verifies but fails to decode can leave
// their state half-restored; the rebuild also subscribed those tuners
// to its repository, so a failed restore binds them back to the live
// one).
func (l *Local) Restore(snapshot []byte) error {
	man, sections, err := checkpoint.Parse(snapshot)
	if err != nil {
		return fmt.Errorf("shard %s: %w", l.cfg.Name, err)
	}
	raw, ok := sections["extra/"+specsExtra]
	if !ok {
		return fmt.Errorf("%w: shard %s: snapshot lacks the %q section (not a shard snapshot)",
			checkpoint.ErrManifest, l.cfg.Name, "extra/"+specsExtra)
	}
	var specs []InstanceSpec
	if err := json.Unmarshal(raw, &specs); err != nil {
		return fmt.Errorf("shard %s: specs section: %w", l.cfg.Name, err)
	}

	sys, err := l.rebuild(specs, man, sections)
	if err != nil {
		l.System().Repository.Rebind()
		return err
	}
	l.mu.Lock()
	l.sys, l.specs = sys, specs
	l.mu.Unlock()
	return nil
}

// rebuild builds a fresh system, re-provisions specs into it and
// restores the verified sections onto it, leaving the receiver's live
// system and specs untouched.
func (l *Local) rebuild(specs []InstanceSpec, man checkpoint.Manifest, sections map[string][]byte) (*core.System, error) {
	sys, err := l.buildSystem()
	if err != nil {
		return nil, err
	}
	for _, sp := range specs {
		cs, err := sp.CoreSpec()
		if err == nil {
			_, err = sys.AddInstance(cs)
		}
		if err != nil {
			return nil, fmt.Errorf("shard %s: rebuild instance %q: %w", l.cfg.Name, sp.ID, err)
		}
	}
	if err := sys.RestoreSections(man, sections); err != nil {
		return nil, fmt.Errorf("shard %s: %w", l.cfg.Name, err)
	}
	return sys, nil
}

// ExportInstance implements Shard: the migration-out half of a
// rebalance. The instance stays a member until RemoveInstance.
func (l *Local) ExportInstance(id string) (InstanceExport, error) {
	l.mu.Lock()
	var spec InstanceSpec
	found := false
	for _, sp := range l.specs {
		if sp.ID == id {
			spec, found = sp, true
			break
		}
	}
	l.mu.Unlock()
	if !found {
		return InstanceExport{}, fmt.Errorf("shard %s: no instance %q", l.cfg.Name, id)
	}
	payload, meta, err := l.System().ExportInstanceSection(id)
	if err != nil {
		return InstanceExport{}, err
	}
	return InstanceExport{
		Spec:    spec,
		Meta:    InstanceMeta{ID: meta.ID, Engine: meta.Engine, Plan: meta.Plan, Slaves: meta.Slaves, Gen: meta.Gen},
		Section: payload,
	}, nil
}

// ImportInstance implements Shard: the migration-in half. The member is
// re-provisioned from its spec, then its live state is restored from
// the exported section. A restore failure rolls the provisioning back,
// so a bad payload never leaves a half-migrated member.
func (l *Local) ImportInstance(exp InstanceExport) error {
	if err := l.AddInstance(exp.Spec); err != nil {
		return err
	}
	meta := checkpoint.InstanceMeta{ID: exp.Meta.ID, Engine: exp.Meta.Engine, Plan: exp.Meta.Plan, Slaves: exp.Meta.Slaves, Gen: exp.Meta.Gen}
	if err := l.System().ImportInstanceSection(exp.Spec.ID, meta, exp.Section); err != nil {
		_ = l.RemoveInstance(exp.Spec.ID)
		return err
	}
	return nil
}

// Close implements Shard. A local shard has nothing to release.
func (l *Local) Close() error { return nil }

var _ Shard = (*Local)(nil)
