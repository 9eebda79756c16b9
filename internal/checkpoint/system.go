package checkpoint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"autodbaas/internal/agent"
	"autodbaas/internal/dfa"
	"autodbaas/internal/director"
	"autodbaas/internal/faults"
	"autodbaas/internal/monitor"
	"autodbaas/internal/obs"
	"autodbaas/internal/orchestrator"
	"autodbaas/internal/repository"
	"autodbaas/internal/tuner"
	"autodbaas/internal/tuner/bo"
	"autodbaas/internal/tuner/rl"
)

// FleetMember is one instance's slice of the System handed to the codec:
// the tuning agent (which reaches the cluster instance, replica set and
// TDE) and its external monitoring agent. Gen is the membership
// generation at which the member last (re-)joined.
type FleetMember struct {
	ID      string
	Gen     int
	Agent   *agent.Agent
	Monitor *monitor.Agent
}

// Extra is one auxiliary snapshot section contributed by a subsystem
// layered on top of core.System (the elastic fleet service's desired
// state, for example). Save is called at Write time; Restore, when
// non-nil, is called at Read time with the section payload. Extras ride
// in the same container as "extra/<name>" sections, CRC-verified like
// everything else.
type Extra struct {
	Name    string
	Save    func() ([]byte, error)
	Restore func([]byte) error
}

// System is the full set of subsystem handles the codec serializes. The
// core package assembles it from a *core.System; keeping the codec on
// explicit handles avoids an import cycle and makes the snapshot
// surface auditable in one place.
type System struct {
	Window      int
	Generation  int
	Parallelism int

	Orchestrator *orchestrator.Orchestrator
	DFA          *dfa.DFA
	Director     *director.Director
	Repository   *repository.Repository
	Tuners       []tuner.Tuner
	Faults       *faults.Injector
	Fleet        []FleetMember
	Extras       []Extra
}

// Section names. Per-instance sections are "instance/<id>".
const (
	secRepoStore    = "repository/store"
	secRepoFanout   = "repository/fanout"
	secOrchestrator = "orchestrator"
	secDFA          = "dfa"
	secDirector     = "director"
	secFaults       = "faults"
	secTuners       = "tuners"
	secInstPrefix   = "instance/"
	secExtraPrefix  = "extra/"
)

// tunerBlob is one tuner's snapshot inside the "tuners" section.
type tunerBlob struct {
	Name  string          `json:"name"`
	Kind  string          `json:"kind"`
	State json.RawMessage `json:"state"`
}

// metrics are the subsystem's registry handles, resolved once.
var (
	metricsOnce sync.Once
	mBytes      *obs.Gauge
	mDuration   *obs.Histogram
	mTotal      *obs.Counter
	mRestores   *obs.Counter
	mCorrupt    *obs.Counter
)

func ckptMetrics() {
	metricsOnce.Do(func() {
		r := obs.Default()
		mBytes = r.Gauge("autodbaas_checkpoint_bytes", "Size of the most recent snapshot written.")
		mDuration = r.Histogram("autodbaas_checkpoint_duration_seconds", "Wall-clock time to encode one snapshot.", nil)
		mTotal = r.Counter("autodbaas_checkpoint_total", "Snapshots written.")
		mRestores = r.Counter("autodbaas_checkpoint_restore_total", "Snapshots restored.")
		mCorrupt = r.Counter("autodbaas_checkpoint_corrupt_total", "Snapshot restores rejected as corrupt or mismatched.")
	})
}

// marshalTuner snapshots one (possibly fault-wrapped) tuner.
func marshalTuner(t tuner.Tuner) (tunerBlob, error) {
	switch tt := tuner.Unwrap(t).(type) {
	case *bo.Tuner:
		raw, err := json.Marshal(tt.CheckpointState())
		if err != nil {
			return tunerBlob{}, err
		}
		return tunerBlob{Name: t.Name(), Kind: "ottertune-bo", State: raw}, nil
	case *rl.Tuner:
		raw, err := json.Marshal(tt.CheckpointState())
		if err != nil {
			return tunerBlob{}, err
		}
		return tunerBlob{Name: t.Name(), Kind: "cdbtune-rl", State: raw}, nil
	default:
		return tunerBlob{}, fmt.Errorf("checkpoint: tuner %q has no snapshot support", t.Name())
	}
}

// restoreTuner applies one blob onto the matching rebuilt tuner.
func restoreTuner(t tuner.Tuner, blob tunerBlob) error {
	switch tt := tuner.Unwrap(t).(type) {
	case *bo.Tuner:
		if blob.Kind != "ottertune-bo" {
			return fmt.Errorf("%w: tuner %q is ottertune-bo, snapshot holds %q", ErrManifest, t.Name(), blob.Kind)
		}
		var st bo.State
		if err := json.Unmarshal(blob.State, &st); err != nil {
			return fmt.Errorf("checkpoint: tuner %q state: %w", t.Name(), err)
		}
		return tt.RestoreCheckpointState(st)
	case *rl.Tuner:
		if blob.Kind != "cdbtune-rl" {
			return fmt.Errorf("%w: tuner %q is cdbtune-rl, snapshot holds %q", ErrManifest, t.Name(), blob.Kind)
		}
		var st rl.State
		if err := json.Unmarshal(blob.State, &st); err != nil {
			return fmt.Errorf("checkpoint: tuner %q state: %w", t.Name(), err)
		}
		return tt.RestoreCheckpointState(st)
	default:
		return fmt.Errorf("checkpoint: tuner %q has no snapshot support", t.Name())
	}
}

// EncodeInstance serializes one fleet member's state exactly as a full
// snapshot's "instance/<id>" section would (instance.go), plus its
// topology pin. It is the migration wire format: a shard checkpoints an
// instance out with EncodeInstance and the destination shard restores
// it with DecodeInstance.
func EncodeInstance(fm FleetMember) ([]byte, InstanceMeta) {
	st := captureInstance(fm)
	return AppendInstance(nil, &st, fm.Agent.Instance().Engine), instanceMeta(fm)
}

// DecodeInstance restores an EncodeInstance payload onto a freshly
// (re-)provisioned fleet member. The member must match the payload's
// topology pin (engine, plan, replica count); Gen is not compared — the
// member joins the destination cohort at the destination's own
// generation numbering.
func DecodeInstance(fm FleetMember, meta InstanceMeta, payload []byte) error {
	got := instanceMeta(fm)
	got.Gen = meta.Gen
	if got != meta {
		return fmt.Errorf("%w: instance %q is %+v, migration payload holds %+v", ErrManifest, fm.ID, got, meta)
	}
	return restoreInstance(fm, secInstPrefix+fm.ID, payload)
}

// instanceMeta derives the topology pin for one fleet member.
func instanceMeta(fm FleetMember) InstanceMeta {
	inst := fm.Agent.Instance()
	return InstanceMeta{
		ID:     fm.ID,
		Engine: string(inst.Engine),
		Plan:   inst.Plan.Name,
		Slaves: len(inst.Replica.Slaves()),
		Gen:    fm.Gen,
	}
}

// cohortDiff renders the difference between the snapshot's cohort and
// the rebuilt system's, naming the instance IDs on each side of the
// mismatch — "snapshot has 4 instances, system has 3" tells an operator
// nothing once cohorts are dynamic; "missing db-02" does.
func cohortDiff(snapshot []InstanceMeta, system []FleetMember) string {
	snapIDs := make(map[string]bool, len(snapshot))
	for _, im := range snapshot {
		snapIDs[im.ID] = true
	}
	sysIDs := make(map[string]bool, len(system))
	for _, fm := range system {
		sysIDs[fm.ID] = true
	}
	var missing, extra []string // relative to the rebuilt system
	for _, im := range snapshot {
		if !sysIDs[im.ID] {
			missing = append(missing, im.ID)
		}
	}
	for _, fm := range system {
		if !snapIDs[fm.ID] {
			extra = append(extra, fm.ID)
		}
	}
	var parts []string
	if len(missing) > 0 {
		parts = append(parts, fmt.Sprintf("snapshot expects [%s] which the system lacks", strings.Join(missing, " ")))
	}
	if len(extra) > 0 {
		parts = append(parts, fmt.Sprintf("system has [%s] which the snapshot lacks", strings.Join(extra, " ")))
	}
	if len(parts) == 0 {
		return "same IDs in a different order"
	}
	return strings.Join(parts, "; ")
}

// Encode stages the System's snapshot container; the caller writes it
// out (Container.WriteTo) or nests it in a fleet snapshot. The
// repository fan-out queue must be drained first (core.System.Snapshot
// flushes before calling).
func Encode(sys System) (*Container, error) {
	ckptMetrics()
	start := time.Now()

	var sections []section
	add := func(name string, payload []byte) { sections = append(sections, bytesSection(name, payload)) }
	addJSON := func(name string, v any) error {
		raw, err := json.Marshal(v)
		if err != nil {
			return fmt.Errorf("checkpoint: encode section %q: %w", name, err)
		}
		add(name, raw)
		return nil
	}

	var storeBuf bytes.Buffer
	if err := sys.Repository.Save(&storeBuf); err != nil {
		return nil, err
	}
	add(secRepoStore, storeBuf.Bytes())

	if err := addJSON(secRepoFanout, sys.Repository.CheckpointState()); err != nil {
		return nil, err
	}
	if err := addJSON(secOrchestrator, sys.Orchestrator.CheckpointState()); err != nil {
		return nil, err
	}
	if err := addJSON(secDFA, sys.DFA.CheckpointState()); err != nil {
		return nil, err
	}
	if err := addJSON(secDirector, sys.Director.CheckpointState()); err != nil {
		return nil, err
	}
	if err := addJSON(secFaults, sys.Faults.CheckpointState()); err != nil {
		return nil, err
	}

	blobs := make([]tunerBlob, 0, len(sys.Tuners))
	for _, t := range sys.Tuners {
		b, err := marshalTuner(t)
		if err != nil {
			return nil, err
		}
		blobs = append(blobs, b)
	}
	if err := addJSON(secTuners, blobs); err != nil {
		return nil, err
	}

	for _, ex := range sys.Extras {
		raw, err := ex.Save()
		if err != nil {
			return nil, fmt.Errorf("checkpoint: extra section %q: %w", ex.Name, err)
		}
		add(secExtraPrefix+ex.Name, raw)
	}

	man := Manifest{
		Window:      sys.Window,
		Generation:  sys.Generation,
		Parallelism: sys.Parallelism,
		HasFaults:   sys.Faults != nil,
	}
	for _, t := range sys.Tuners {
		man.Tuners = append(man.Tuners, t.Name())
	}
	// The instance sections encode concurrently, after the repository
	// store and the tuner blob above: overlapping those two large
	// buffers with the fan-out would raise the peak heap of a snapshot.
	// Each lands in its fleet slot, so the layout stays in onboarding
	// order whatever the worker count. Encoding an instance cannot fail.
	man.Instances = make([]InstanceMeta, len(sys.Fleet))
	insts := make([]section, len(sys.Fleet))
	_ = forEach(len(sys.Fleet), func(i int) error {
		raw, meta := EncodeInstance(sys.Fleet[i])
		man.Instances[i] = meta
		insts[i] = bytesSection(secInstPrefix+meta.ID, raw)
		return nil
	})
	sections = append(sections, insts...)

	c, err := stage(man, sections)
	if err != nil {
		return nil, err
	}
	mBytes.Set(float64(c.Len()))
	mDuration.Observe(time.Since(start).Seconds())
	mTotal.Inc()
	return c, nil
}

// Restore applies a snapshot container, already verified by Parse or
// Inspect, to sys, which must be a freshly rebuilt System with the same
// construction parameters (specs, seeds, tuner fleet, fault profile) as
// the one that wrote it — for a dynamic fleet, "the same" means the
// cohort alive at the snapshot's window, which the manifest reports.
// Any validation or decoding failure leaves an error naming the
// offending section — and, for topology mismatches, the differing
// instance IDs. Topology and the presence of every section are checked
// before anything mutates; a section that fails to decode may leave the
// others applied, and the error names the first failing section in the
// serial order whichever worker hit it.
func Restore(man Manifest, sections map[string][]byte, sys System) (err error) {
	ckptMetrics()
	defer func() {
		if err != nil {
			mCorrupt.Inc()
		} else {
			mRestores.Inc()
		}
	}()

	// Validate the rebuild against the manifest before touching state.
	if len(man.Tuners) != len(sys.Tuners) {
		return fmt.Errorf("%w: snapshot has %d tuners, system has %d", ErrManifest, len(man.Tuners), len(sys.Tuners))
	}
	for i, name := range man.Tuners {
		if got := sys.Tuners[i].Name(); got != name {
			return fmt.Errorf("%w: tuner %d is %q, snapshot holds %q", ErrManifest, i, got, name)
		}
	}
	if len(man.Instances) != len(sys.Fleet) {
		return fmt.Errorf("%w: snapshot cohort has %d instances, system has %d (%s)",
			ErrManifest, len(man.Instances), len(sys.Fleet), cohortDiff(man.Instances, sys.Fleet))
	}
	for i, im := range man.Instances {
		got := instanceMeta(sys.Fleet[i])
		if got.ID != im.ID {
			return fmt.Errorf("%w: cohort position %d is %q, snapshot holds %q (%s)",
				ErrManifest, i, got.ID, im.ID, cohortDiff(man.Instances, sys.Fleet))
		}
		// Gen is restored state, not a construction parameter: a rebuilt
		// cohort joins at generations 1..n regardless of the churn history
		// behind the snapshot's numbering, and Restore overwrites it.
		got.Gen = im.Gen
		if got != im {
			return fmt.Errorf("%w: instance %q is %+v, snapshot holds %+v", ErrManifest, im.ID, got, im)
		}
	}
	if man.HasFaults != (sys.Faults != nil) {
		return fmt.Errorf("%w: snapshot fault injection = %v, system = %v", ErrManifest, man.HasFaults, sys.Faults != nil)
	}
	if sys.Repository.Len() != 0 {
		return fmt.Errorf("checkpoint: restore into a non-empty repository (%d samples); rebuild the system first", sys.Repository.Len())
	}

	// Every section the restore reads must be present before the first
	// mutation, so a snapshot missing one leaves the system untouched. A
	// registered extra restorer with no matching section means the
	// snapshot predates that subsystem: a manifest mismatch, not a silent
	// default.
	required := []string{secRepoStore, secRepoFanout, secOrchestrator, secDFA, secDirector, secFaults, secTuners}
	for _, fm := range sys.Fleet {
		required = append(required, secInstPrefix+fm.ID)
	}
	for _, ex := range sys.Extras {
		if ex.Restore != nil {
			required = append(required, secExtraPrefix+ex.Name)
		}
	}
	for _, name := range required {
		if _, ok := sections[name]; !ok {
			return fmt.Errorf("%w: section %q missing", ErrManifest, name)
		}
	}
	// The repository store, the tuner blob and each instance touch
	// disjoint state, so they decode and apply as independent jobs on
	// every core; the small sections stay one job, in their own order.
	// The jobs are listed in the serial restore's order, so forEach
	// reports the failure a serial restore would have hit first.
	jobs := []func() error{
		func() error {
			if _, err := sys.Repository.LoadQuiet(bytes.NewReader(sections[secRepoStore])); err != nil {
				return fmt.Errorf("checkpoint: section %q: %w", secRepoStore, err)
			}
			return nil
		},
		func() error { return restoreSmall(sys, sections) },
		func() error {
			var blobs []tunerBlob
			if err := decodeSection(sections, secTuners, &blobs); err != nil {
				return err
			}
			if len(blobs) != len(sys.Tuners) {
				return fmt.Errorf("%w: section %q holds %d tuners, system has %d", ErrManifest, secTuners, len(blobs), len(sys.Tuners))
			}
			for i, t := range sys.Tuners {
				if err := restoreTuner(t, blobs[i]); err != nil {
					return err
				}
			}
			return nil
		},
	}
	for _, fm := range sys.Fleet {
		jobs = append(jobs, func() error {
			name := secInstPrefix + fm.ID
			return restoreInstance(fm, name, sections[name])
		})
	}
	if err := forEach(len(jobs), func(i int) error { return jobs[i]() }); err != nil {
		return err
	}

	// Extras restore last, after every standard subsystem is in place —
	// a layered service (the fleet control plane) may read through to
	// restored state from its Restore hook.
	for _, ex := range sys.Extras {
		if ex.Restore == nil {
			continue
		}
		if err := ex.Restore(sections[secExtraPrefix+ex.Name]); err != nil {
			return fmt.Errorf("checkpoint: extra section %q: %w", secExtraPrefix+ex.Name, err)
		}
	}
	return nil
}

// decodeSection unmarshals one JSON section.
func decodeSection(sections map[string][]byte, name string, v any) error {
	if err := json.Unmarshal(sections[name], v); err != nil {
		return fmt.Errorf("checkpoint: decode section %q: %w", name, err)
	}
	return nil
}

// restoreSmall applies the small sections in their serial order: the
// repository fan-out, orchestrator, DFA, director and fault injector.
func restoreSmall(sys System, sections map[string][]byte) error {
	var fanout repository.State
	if err := decodeSection(sections, secRepoFanout, &fanout); err != nil {
		return err
	}
	if err := sys.Repository.RestoreCheckpointState(fanout); err != nil {
		return fmt.Errorf("checkpoint: section %q: %w", secRepoFanout, err)
	}
	var orch orchestrator.State
	if err := decodeSection(sections, secOrchestrator, &orch); err != nil {
		return err
	}
	if err := sys.Orchestrator.RestoreCheckpointState(orch); err != nil {
		return fmt.Errorf("checkpoint: section %q: %w", secOrchestrator, err)
	}
	var dfaState dfa.State
	if err := decodeSection(sections, secDFA, &dfaState); err != nil {
		return err
	}
	sys.DFA.RestoreCheckpointState(dfaState)
	var dirState director.State
	if err := decodeSection(sections, secDirector, &dirState); err != nil {
		return err
	}
	if err := sys.Director.RestoreCheckpointState(dirState); err != nil {
		return fmt.Errorf("checkpoint: section %q: %w", secDirector, err)
	}
	var faultState faults.InjectorState
	if err := decodeSection(sections, secFaults, &faultState); err != nil {
		return err
	}
	if err := sys.Faults.RestoreCheckpointState(faultState); err != nil {
		return fmt.Errorf("checkpoint: section %q: %w", secFaults, err)
	}
	return nil
}

// forEach runs job(0), …, job(n-1) on up to GOMAXPROCS goroutines and
// returns the error of the lowest-numbered failing job — the one a
// serial loop would have hit first — however the jobs interleave. Jobs
// are claimed in index order and none starts after a failure, so every
// job numbered below a failed one has run. The worker count depends on
// the machine alone; callers make each job's output independent of it.
func forEach(n int, job func(i int) error) error {
	errs := make([]error, n)
	var cursor atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				if errs[i] = job(i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
