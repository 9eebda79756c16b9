package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"autodbaas/internal/fleet"
	"autodbaas/internal/knobs"
	"autodbaas/internal/shard"
	"autodbaas/internal/tuner"
	"autodbaas/internal/tuner/bo"
)

// snapshotRepeats is how often the final checkpoint and the restore
// are each repeated; the median is reported. One checkpoint is a single
// sample of a one-to-six-second operation whose first run is the
// slowest; across ten seeds one sample spread 13-23%, the median of two
// 4-12%.
func (c childConfig) snapshotRepeats() int {
	if c.Sizing.Quick {
		return 1
	}
	return 2
}

// childConfig is what the orchestrator passes to a re-exec'd child.
type childConfig struct {
	Workload  string
	Seed      int64
	Sizing    sizing
	Traced    bool
	SetupOnly bool
	OutDir    string
}

// runResult is what one child reports back, as JSON on stdout.
type runResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`

	SetupS float64 `json:"setup_s"`

	// Measured phase.
	Windows                 int     `json:"windows"`
	InstanceWindows         int     `json:"instance_windows"`
	ExpectedInstanceWindows int     `json:"expected_instance_windows"`
	MeasuredWallS           float64 `json:"measured_wall_s"`
	MeasuredCPUS            float64 `json:"measured_cpu_s"`
	StepMsP50               float64 `json:"step_ms_p50"`
	StepMsTail              float64 `json:"step_ms_tail"`
	TailPercentile          float64 `json:"tail_percentile"`
	Throttles               int     `json:"throttles"`
	PeakRSSMB               float64 `json:"peak_rss_mb"`

	CheckpointMs     float64   `json:"checkpoint_ms"` // median of the runs
	CheckpointMsRuns []float64 `json:"checkpoint_ms_runs"`
	CheckpointBytes  int64     `json:"checkpoint_bytes"`
	RestoreMs        float64   `json:"restore_ms"` // median of the runs
	RestoreMsRuns    []float64 `json:"restore_ms_runs"`

	// Operations: instance-windows, lifecycle calls, checkpoints and
	// restores, over the whole run including set-up.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"` // first few messages

	Fingerprint         string `json:"fingerprint"`
	RestoredFingerprint string `json:"restored_fingerprint"`

	// Layer is the per-layer ledger (traced children only); Spans is
	// how many spans the recorder held.
	Layer map[string]layerValue `json:"layer,omitempty"`
	Spans int                   `json:"spans,omitempty"`
	// RecorderCostPct is what recording those spans cost, as a share of
	// the measured wall time: span count times the calibrated cost of
	// one span. Unlike bench.trace_overhead_pct, the difference of two
	// runs, it is not swamped by run-to-run noise.
	RecorderCostPct float64 `json:"recorder_cost_pct,omitempty"`
}

// harness drives one workload inside a child process.
type harness struct {
	cfg  childConfig
	plan *plan
	rec  *recorder
	cl   *cleanup
	tmp  string
	res  *runResult
	envs int // services built so far; names each one's worker sockets

	inRunBytes      []int64 // sizes of the snapshots taken between measured windows
	mutationsFailed int
}

// env is one live service with whatever backs it.
type env struct {
	svc     *fleet.Service
	workers *workerSet // nil on the flat engine
	remotes []*shard.Remote
	tuner   *timedTuner // nil when untraced or sharded
}

func (e *env) close() {
	if e.svc != nil {
		_ = e.svc.Close() // closing a connection to a worker about to be killed
		e.svc = nil
	}
	if e.workers != nil {
		e.workers.stop()
	}
}

// newTuner builds the flat engine's tuner with the settings a shard
// worker builds its own from (shard.TunerConfig defaults), so flat and
// sharded layouts tune alike.
func newTuner(seed int64) (tuner.Tuner, error) {
	return bo.New(bo.Options{Engine: knobs.Postgres, Candidates: 60, MaxSamplesPerFit: 60, UCBBeta: 0.5, Seed: seed})
}

// newEnv builds an empty service for the plan: the flat engine with one
// tuner, or a coordinator over freshly spawned worker processes.
func (h *harness) newEnv() (*env, error) {
	p := h.plan
	cfg := fleet.Config{Seed: p.FleetSeed, Parallelism: 1, Tiers: p.Tiers, Blueprints: p.Blueprints}
	e := &env{}
	if p.Workers > 0 {
		h.envs++
		ws, remotes, err := spawnWorkers(h.cl, h.tmp, fmt.Sprintf("e%d", h.envs), p.Workers)
		if err != nil {
			return nil, err
		}
		e.workers, e.remotes = ws, remotes
		for i, r := range remotes {
			sc := shard.Config{
				Name:        fmt.Sprintf("s%d", i),
				Seed:        p.FleetSeed + int64(i+1)*1000,
				Parallelism: 1,
				Tuner:       shard.TunerConfig{Count: 1, Seed: p.TunerSeed},
			}
			if err := r.Init(sc); err != nil {
				e.close()
				return nil, fmt.Errorf("init worker %d: %w", i, err)
			}
			var host shard.Shard = r
			if h.rec != nil {
				host = &timedShard{inner: r, rec: h.rec}
			}
			cfg.ShardHosts = append(cfg.ShardHosts, host)
		}
	} else {
		t, err := newTuner(p.TunerSeed)
		if err != nil {
			return nil, err
		}
		if h.rec != nil {
			t, e.tuner = wrapTuner(t, h.rec)
		}
		cfg.Tuners = []tuner.Tuner{t}
	}
	svc, err := fleet.New(cfg)
	if err != nil {
		e.close()
		return nil, err
	}
	e.svc = svc
	return e, nil
}

// fail counts one failed operation.
func (h *harness) fail(format string, args ...any) {
	h.res.Failed++
	if len(h.res.Failures) < 8 {
		h.res.Failures = append(h.res.Failures, fmt.Sprintf(format, args...))
	}
}

// op runs one lifecycle / checkpoint / restore call as an operation and
// a harness span.
func (h *harness) op(name string, fn func() error) error {
	h.res.Attempted++
	err := h.rec.scope(name, fn)
	if err != nil {
		h.fail("%s: %v", name, err)
	}
	return err
}

// step advances the fleet one window. Every instance stepped is one
// operation; an entry in StepResult.Errors is one failure. An error
// from Step itself ends the run.
func (h *harness) step(e *env) (shard.StepResult, time.Duration, error) {
	var res shard.StepResult
	start := time.Now()
	err := h.rec.scope(spanStep, func() error {
		var err error
		res, err = e.svc.Step(h.plan.window())
		return err
	})
	took := time.Since(start)
	h.res.Attempted += len(res.P99Ms)
	for id, msg := range res.Errors {
		h.fail("window %d: %s: %s", res.Window, id, msg)
	}
	if err != nil {
		h.res.Attempted++
		h.fail("step: %v", err)
	}
	return res, took, err
}

func (h *harness) mutate(e *env, m mutation) error {
	var err error
	switch m.Op {
	case opCreate:
		err = h.op(spanCreate, func() error { return e.svc.CreateDatabase(m.Tenant, m.Spec) })
	case opDelete:
		err = h.op(spanDelete, func() error { return e.svc.DeleteDatabase(m.Tenant, m.DB) })
	case opResize:
		err = h.op(spanResize, func() error { return e.svc.ResizeDatabase(m.Tenant, m.DB, m.Plan) })
	default:
		err = fmt.Errorf("unknown mutation %q", m.Op)
	}
	if err != nil {
		h.mutationsFailed++
	}
	return err
}

// checkpoint writes one snapshot and returns its path, size and cost.
func (h *harness) checkpoint(e *env) (path string, size int64, took time.Duration, err error) {
	dir := filepath.Join(h.tmp, "ckpt")
	start := time.Now()
	err = h.op(spanCheckpoint, func() error {
		var err error
		path, err = e.svc.CheckpointNow(dir)
		return err
	})
	took = time.Since(start)
	if err != nil {
		return "", 0, took, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return "", 0, took, err
	}
	return path, st.Size(), took, nil
}

// fingerprint hashes the fleet's determinism fingerprint.
func (h *harness) fingerprint(e *env) (string, error) {
	var fp fleet.Fingerprint
	err := h.rec.scope(spanFingerprint, func() error {
		var err error
		fp, err = e.svc.Fingerprint()
		return err
	})
	if err != nil {
		return "", err
	}
	raw, err := json.Marshal(fp)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:8]), nil
}

// cpu is the CPU time of this process plus its live workers.
func (h *harness) cpu(e *env) (time.Duration, error) {
	total := selfCPU()
	if e.workers != nil {
		w, err := e.workers.cpu()
		if err != nil {
			return 0, err
		}
		total += w
	}
	return total, nil
}

// peakRSS is the peak resident set of this process plus its largest
// live worker, in MiB.
func (h *harness) peakRSS(e *env) (float64, error) {
	rss := selfPeakRSS()
	if e.workers != nil {
		w, err := e.workers.peakRSS()
		if err != nil {
			return 0, err
		}
		rss += w
	}
	return float64(rss) / (1 << 20), nil
}

// setup builds the service, declares the cohort and runs the
// provisioning tick and the warm-up windows.
func (h *harness) setup() (*env, error) {
	e, err := h.newEnv()
	if err != nil {
		return nil, err
	}
	for _, t := range h.plan.Tenants {
		if err := e.svc.CreateTenant(t); err != nil {
			e.close()
			return nil, err
		}
	}
	for _, db := range h.plan.Databases {
		if err := h.op(spanCreate, func() error { return e.svc.CreateDatabase(db.Tenant, db.Spec) }); err != nil {
			e.close()
			return nil, err
		}
	}
	for i := 0; i < h.plan.Warmup; i++ {
		if _, _, err := h.step(e); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// runChild is the -child mode: one pass in this process, released on
// every exit path.
func runChild(cfg childConfig) (*runResult, error) {
	cl := &cleanup{}
	defer cl.run()
	cl.onSignal()
	cl.onParentDeath()
	return runPass(cl, cfg)
}

// runPass runs one workload once: set-up, the measured windows, the
// final checkpoint and the restores, and (traced) the ledger.
func runPass(cl *cleanup, cfg childConfig) (*runResult, error) {
	p, err := buildPlan(cfg.Workload, cfg.Seed, cfg.Sizing, runtime.NumCPU())
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	// Relative on purpose: worker socket paths must stay short.
	tmp, err := os.MkdirTemp(cfg.OutDir, "run-")
	if err != nil {
		return nil, err
	}
	cl.add(func() { _ = os.RemoveAll(tmp) })

	h := &harness{cfg: cfg, plan: p, cl: cl, tmp: tmp,
		res: &runResult{Workload: cfg.Workload, Seed: cfg.Seed, Traced: cfg.Traced, Windows: p.Windows}}
	if cfg.Traced {
		h.rec = newRecorder()
	}

	start := time.Now()
	e, err := h.setup()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer e.close()
	h.res.SetupS = time.Since(start).Seconds()
	if cfg.SetupOnly {
		return h.res, nil
	}

	led := beginLedger(h, e) // nil, and inert, when untraced
	if err := h.measure(e); err != nil {
		return nil, err
	}
	led.endMeasured(e)
	path, err := h.finalCheckpoint(e)
	if err != nil {
		return nil, err
	}
	if err := led.probeLive(e); err != nil {
		return nil, err
	}
	e.close()
	if err := h.restore(path); err != nil {
		return nil, err
	}
	if err := led.finish(); err != nil {
		return nil, err
	}
	return h.res, nil
}

// measure runs the measured windows: the churn schedule's calls, then
// one Step, window after window, with the in-run checkpoints the plan
// asks for.
func (h *harness) measure(e *env) error {
	p, res := h.plan, h.res
	for _, n := range p.ExpectedInstanceWindows {
		res.ExpectedInstanceWindows += n
	}
	stepMs := make([]float64, 0, p.Windows)
	// Start every run from a collected heap, so collection cycles fall
	// on the same windows run after run instead of wherever set-up's
	// garbage happened to leave the pacer.
	runtime.GC()
	cpu0, err := h.cpu(e)
	if err != nil {
		return err
	}
	start := time.Now()
	for w := 0; w < p.Windows; w++ {
		h.rec.setWindow(w)
		if w < len(p.Churn) {
			for _, m := range p.Churn[w] {
				if err := h.mutate(e, m); err != nil {
					return fmt.Errorf("window %d: %w", w, err)
				}
			}
		}
		sr, took, err := h.step(e)
		if err != nil {
			return fmt.Errorf("window %d: %w", w, err)
		}
		stepMs = append(stepMs, took.Seconds()*1e3)
		res.InstanceWindows += len(sr.P99Ms)
		res.Throttles += sr.Throttles
		for _, after := range p.CheckpointAfter {
			if after == w+1 {
				_, size, _, err := h.checkpoint(e)
				if err != nil {
					return fmt.Errorf("in-run checkpoint after window %d: %w", after, err)
				}
				h.inRunBytes = append(h.inRunBytes, size)
			}
		}
	}
	res.MeasuredWallS = time.Since(start).Seconds()
	h.rec.setWindow(setupWindow)
	cpu1, err := h.cpu(e)
	if err != nil {
		return err
	}
	res.MeasuredCPUS = (cpu1 - cpu0).Seconds()
	if res.PeakRSSMB, err = h.peakRSS(e); err != nil {
		return err
	}
	if res.StepMsP50, err = percentile(stepMs, 50); err != nil {
		return err
	}
	if res.StepMsTail, res.TailPercentile, err = tailPercentile(stepMs); err != nil {
		return err
	}
	return nil
}

// finalCheckpoint snapshots the fleet after the last window (the median
// of a few identical snapshots is the reported cost) and fingerprints it.
func (h *harness) finalCheckpoint(e *env) (string, error) {
	var path string
	for i := 0; i < h.cfg.snapshotRepeats(); i++ {
		runtime.GC() // as testing.B does before a timed run
		p, size, took, err := h.checkpoint(e)
		if err != nil {
			return "", err
		}
		path, h.res.CheckpointBytes = p, size
		h.res.CheckpointMsRuns = append(h.res.CheckpointMsRuns, took.Seconds()*1e3)
	}
	h.res.CheckpointMs = median(h.res.CheckpointMsRuns)
	fp, err := h.fingerprint(e)
	if err != nil {
		return "", err
	}
	h.res.Fingerprint = fp
	return path, nil
}

// restore loads the final snapshot into fresh services of the same
// config (onto fresh workers when sharded) and checks each comes back
// with the fingerprint taken at checkpoint time.
func (h *harness) restore(path string) error {
	for i := 0; i < h.cfg.snapshotRepeats(); i++ {
		e, err := h.newEnv()
		if err != nil {
			return err
		}
		runtime.GC()
		start := time.Now()
		err = h.op(spanRestore, func() error { return e.svc.RestoreFrom(path) })
		h.res.RestoreMsRuns = append(h.res.RestoreMsRuns, time.Since(start).Seconds()*1e3)
		if err != nil {
			e.close()
			return err
		}
		fp, err := h.fingerprint(e)
		e.close()
		if err != nil {
			return err
		}
		h.res.RestoredFingerprint = fp
		if fp != h.res.Fingerprint {
			return nil // reported as incorrect by the caller's checks
		}
	}
	h.res.RestoreMs = median(h.res.RestoreMsRuns)
	return nil
}

// errIncorrect marks a run whose own correctness checks failed.
var errIncorrect = errors.New("correctness check failed")

// check applies the correctness checks one pass can make on itself.
func (r *runResult) check() error {
	if r.InstanceWindows != r.ExpectedInstanceWindows {
		return fmt.Errorf("%w: %s completed %d instance-windows, schedule expects %d",
			errIncorrect, r.Workload, r.InstanceWindows, r.ExpectedInstanceWindows)
	}
	if r.Fingerprint == "" || r.RestoredFingerprint != r.Fingerprint {
		return fmt.Errorf("%w: %s restored fingerprint %q, checkpoint-time fingerprint %q",
			errIncorrect, r.Workload, r.RestoredFingerprint, r.Fingerprint)
	}
	return nil
}
