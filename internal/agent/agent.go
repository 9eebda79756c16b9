// Package agent implements the on-VM tuning agent: it lives next to the
// database process (talking to it over a domain socket in the paper's
// deployment), runs the TDE periodically, converts TDE events into
// recommendation requests toward the config director, and uploads
// training workloads (delta metrics + objective) to the central data
// repository — gated by the TDE so only high-quality samples reach the
// tuners' learning models.
package agent

import (
	"errors"
	"fmt"
	"time"

	"autodbaas/internal/cluster"
	"autodbaas/internal/metrics"
	"autodbaas/internal/obs"
	"autodbaas/internal/simdb"
	"autodbaas/internal/tde"
	"autodbaas/internal/tuner"
	"autodbaas/internal/workload"
)

// SampleSink receives training samples: the central data repository,
// which the BO tuners it feeds train from.
type SampleSink interface {
	Observe(tuner.Sample) error
}

// EventSink receives TDE events (the config director, possibly remote).
// req is the instance's tuning request when ev is a throttle, and the
// zero Request for the other kinds, which ask for no recommendation.
type EventSink interface {
	HandleEvent(instanceID string, ev tde.Event, req tuner.Request) error
}

// TuningSink receives unconditional (periodic-mode) tuning requests.
type TuningSink interface {
	RequestTuning(instanceID string, req tuner.Request) error
}

// Mode selects how the agent triggers tuning requests.
type Mode int

// Agent modes.
const (
	// ModeTDE (default): event-driven — requests fire only on TDE
	// throttles, the paper's contribution.
	ModeTDE Mode = iota
	// ModePeriodic: the classic baseline — a tuning request every
	// PeriodicEvery regardless of need. The TDE still runs (its
	// counters are the evaluation metric) but does not dispatch.
	ModePeriodic
)

// Options configures an agent.
type Options struct {
	// TickEvery is the TDE execution period (the paper uses 2–5 min).
	TickEvery time.Duration
	// GateSamples: upload training samples only in windows where the
	// TDE detected a throttle (high-quality capture). When false the
	// agent uploads every window — the corruption-prone baseline.
	GateSamples bool
	// Baseline feeds the bgwriter detector (nil: paper default).
	Baseline tde.Baseline
	// Mode selects event-driven (TDE) or periodic tuning requests.
	Mode Mode
	// PeriodicEvery is the request period in ModePeriodic (default 5m).
	PeriodicEvery time.Duration
	// Tuning receives periodic-mode requests (required in ModePeriodic).
	Tuning TuningSink
}

// Agent runs the TDE for one database service instance.
type Agent struct {
	inst    *cluster.Instance
	gen     workload.Generator
	tde     *tde.TDE
	opts    Options
	events  EventSink
	samples SampleSink
	mcat    *metrics.Catalog // the engine's, for a sample's metric vector

	lastTick     time.Time
	lastPeriodic time.Time

	uploaded   int
	suppressed int

	// genName is the generator's name when id, "<instance>/<workload>",
	// was built: every request and sample under one workload shares
	// the one string.
	genName, id string

	m agentMetrics
	// dbGauges caches the per-semantic-counter export gauges for this
	// instance so the per-tick export is map-free after warm-up.
	dbGauges map[string]*obs.Gauge
	// counterBuf is the export's reused read of the engine's counters.
	counterBuf map[string]float64
}

// agentMetrics are the agent's registry handles, resolved once.
type agentMetrics struct {
	windows       *obs.Counter
	tdeTicks      *obs.Counter
	tdeSeconds    *obs.Histogram
	uploaded      *obs.Counter
	suppressed    *obs.Counter
	uploadErrors  *obs.Counter
	dispatchError *obs.Counter
}

func newAgentMetrics(r *obs.Registry) agentMetrics {
	return agentMetrics{
		windows:       r.Counter("autodbaas_agent_windows_total", "Observation windows executed across the fleet."),
		tdeTicks:      r.Counter("autodbaas_agent_tde_ticks_total", "TDE detection rounds executed."),
		tdeSeconds:    r.Histogram("autodbaas_agent_tde_run_seconds", "Wall-clock duration of one TDE detection round.", nil),
		uploaded:      r.Counter("autodbaas_agent_samples_uploaded_total", "Training samples uploaded to the repository."),
		suppressed:    r.Counter("autodbaas_agent_samples_suppressed_total", "Sample uploads suppressed by the TDE gate."),
		uploadErrors:  r.Counter("autodbaas_agent_sample_upload_errors_total", "Sample uploads that failed at the sink."),
		dispatchError: r.Counter("autodbaas_agent_event_dispatch_errors_total", "TDE event dispatches that failed at the director."),
	}
}

// New builds an agent for inst running gen.
func New(inst *cluster.Instance, gen workload.Generator, events EventSink, samples SampleSink, opts Options) (*Agent, error) {
	if inst == nil || gen == nil {
		return nil, errors.New("agent: nil instance or generator")
	}
	if opts.TickEvery <= 0 {
		opts.TickEvery = 5 * time.Minute
	}
	if opts.Mode == ModePeriodic {
		if opts.Tuning == nil {
			return nil, errors.New("agent: ModePeriodic requires a TuningSink")
		}
		if opts.PeriodicEvery <= 0 {
			opts.PeriodicEvery = 5 * time.Minute
		}
	}
	master := inst.Replica.Master()
	td, err := tde.New(master, tde.DefaultConfig(), opts.Baseline)
	if err != nil {
		return nil, err
	}
	mcat, err := metrics.CatalogFor(string(inst.Engine))
	if err != nil {
		return nil, err
	}
	name := gen.Name()
	return &Agent{
		inst:         inst,
		gen:          gen,
		genName:      name,
		id:           inst.ID + "/" + name,
		tde:          td,
		opts:         opts,
		events:       events,
		samples:      samples,
		mcat:         mcat,
		lastTick:     master.Now(),
		lastPeriodic: master.Now(),
		m:            newAgentMetrics(obs.Default()),
		dbGauges:     make(map[string]*obs.Gauge),
	}, nil
}

// TDE exposes the embedded detection engine (for counters).
func (a *Agent) TDE() *tde.TDE { return a.tde }

// Instance returns the managed instance.
func (a *Agent) Instance() *cluster.Instance { return a.inst }

// Generator returns the workload this agent's database serves.
func (a *Agent) Generator() workload.Generator { return a.gen }

// Uploaded returns how many training samples were uploaded.
func (a *Agent) Uploaded() int { return a.uploaded }

// WindowOutcome is the deferred result of RunWindowLocal: what one
// observation window produced touching only this agent's own instance.
// The fleet scheduler runs the local phase for many agents
// concurrently, then runs the detection round and control-plane side
// effects with Dispatch in onboarding order, so results are identical
// to the sequential schedule at any parallelism.
type WindowOutcome struct {
	// Stats are the master's window statistics.
	Stats simdb.WindowStats
	// Events are the TDE events of the detection round; Dispatch fills
	// them in (nil when the TDE period had not elapsed).
	Events []tde.Event
	// Err is the window error (engine failures other than clean
	// downtime carry through; simdb.ErrDown is reported but does not
	// abort the round).
	Err error

	ticked bool
	tickAt time.Time
}

// RunWindow advances the instance by one observation window: all nodes
// execute the workload, and if the TDE period elapsed, a detection round
// runs, events are dispatched and a training sample is (possibly)
// uploaded. It returns the master's window stats and the TDE events.
//
// RunWindow is the sequential composition of RunWindowLocal and
// Dispatch; callers that step many agents concurrently use the two
// phases directly.
func (a *Agent) RunWindow(dur time.Duration) (simdb.WindowStats, []tde.Event, error) {
	out := a.RunWindowLocal(dur)
	dispatchErr := a.Dispatch(&out)
	if out.Err != nil {
		return out.Stats, out.Events, out.Err
	}
	return out.Stats, out.Events, dispatchErr
}

// RunWindowLocal runs the instance-local half of one observation
// window: the workload executes on every node and the TDE-period gate
// is checked. Nothing shared is touched — not the director or
// repository, and not the detection round either, whose checkpoint
// detector reads a baseline off the (shared) tuner's sample store — so
// RunWindowLocal calls for distinct agents are safe to run
// concurrently.
func (a *Agent) RunWindowLocal(dur time.Duration) WindowOutcome {
	out := WindowOutcome{}
	master := a.inst.Replica.Master()
	st, err := master.RunWindow(a.gen, dur)
	out.Stats = st
	if err != nil && !errors.Is(err, simdb.ErrDown) {
		out.Err = err
		return out
	}
	// Slaves replay the workload too (replication).
	for _, s := range a.inst.Replica.Slaves() {
		if _, serr := s.RunWindow(a.gen, dur); serr != nil && !errors.Is(serr, simdb.ErrDown) {
			out.Err = serr
			return out
		}
	}
	a.m.windows.Inc()
	out.Err = err
	now := master.Now()
	if now.Sub(a.lastTick) < a.opts.TickEvery {
		return out
	}
	a.lastTick = now
	out.ticked = true
	out.tickAt = now
	return out
}

// Dispatch runs the detection round for a window outcome and applies
// its control-plane side effects: TDE events (or the periodic-mode
// request) go to the director, and the training sample is uploaded to
// the repository honouring the TDE gate. The detection round belongs
// here, not in the local phase: its checkpoint detector consults the
// tuner's baseline, which earlier agents' uploads in the same step may
// have grown — exactly as in the sequential schedule. The tuning
// request is built only when one is sent: for the round's first
// throttle, or when a periodic request is due. Until then nothing has
// touched the engine since the round (the director handles the other
// event kinds without it), so the request is the one a build right
// after the round would give. Dispatch must be called from one
// goroutine at a time per agent, in the same order windows ran; it
// fills out.Events.
func (a *Agent) Dispatch(out *WindowOutcome) error {
	if !out.ticked {
		return nil
	}
	master := a.inst.Replica.Master()
	tickStart := time.Now()
	span := obs.DefaultTracer().StartAt("agent", "tde-tick", out.tickAt)
	span.SetAttr("instance", a.inst.ID)
	out.Events = a.tde.Tick()
	a.m.tdeTicks.Inc()
	a.m.tdeSeconds.Observe(time.Since(tickStart).Seconds())
	span.SetAttr("events", fmt.Sprintf("%d", len(out.Events)))
	span.SetAttr("wall_ms", fmt.Sprintf("%.3f", time.Since(tickStart).Seconds()*1e3))
	span.EndAt(master.Now())
	a.exportDBCounters(master)
	var dispatchErr error
	switch a.opts.Mode {
	case ModePeriodic:
		if out.tickAt.Sub(a.lastPeriodic) >= a.opts.PeriodicEvery {
			a.lastPeriodic = out.tickAt
			if derr := a.opts.Tuning.RequestTuning(a.inst.ID, a.buildRequest()); derr != nil && !errors.Is(derr, tuner.ErrNotTrained) {
				dispatchErr = derr
				a.m.dispatchError.Inc()
			}
		}
	default:
		if a.events != nil {
			// One request, built at the round's first throttle, serves
			// every throttle of the round.
			var req tuner.Request
			built := false
			for _, ev := range out.Events {
				var evReq tuner.Request
				if ev.Kind == tde.KindThrottle {
					if !built {
						req, built = a.buildRequest(), true
					}
					evReq = req
				}
				if derr := a.events.HandleEvent(a.inst.ID, ev, evReq); derr != nil && !errors.Is(derr, tuner.ErrNotTrained) {
					dispatchErr = derr
					a.m.dispatchError.Inc()
				}
			}
		}
	}
	a.maybeUpload(out.Stats, out.Events, out.tickAt)
	return dispatchErr
}

// buildRequest assembles the recommendation request for this window:
// the metric delta over the TDE's latest period, and a copy of the live
// config. Dispatch calls it only for a request it sends.
func (a *Agent) buildRequest() tuner.Request {
	master := a.inst.Replica.Master()
	prev, cur, _, _ := a.tde.Snapshots()
	return tuner.Request{
		InstanceID:  a.inst.ID,
		Engine:      a.inst.Engine,
		WorkloadID:  a.workloadID(),
		Metrics:     metrics.Delta(prev, cur),
		Current:     master.Config(),
		MemoryBytes: master.Resources().MemoryBytes,
	}
}

// workloadID returns "<instance>/<workload>". It builds the string
// again only when the generator reports a new name, as a
// workload.Switch does once it flips.
func (a *Agent) workloadID() string {
	if name := a.gen.Name(); name != a.genName {
		a.genName, a.id = name, a.inst.ID+"/"+name
	}
	return a.id
}

// maybeUpload sends the training sample for the elapsed TDE period,
// honouring the TDE gate. The period's delta is the TDE's: the master
// snapshots its tick took and diffed against.
func (a *Agent) maybeUpload(st simdb.WindowStats, events []tde.Event, now time.Time) {
	if a.samples == nil {
		return
	}
	throttled := false
	for _, ev := range events {
		if ev.Kind == tde.KindThrottle {
			throttled = true
			break
		}
	}
	if a.opts.GateSamples && !throttled {
		a.suppressed++
		a.m.suppressed.Inc()
		return
	}
	// The sample keeps only the delta, as a vector, and the config as
	// one.
	prev, cur, prevAt, curAt := a.tde.Snapshots()
	sample := tuner.Sample{
		WorkloadID: a.workloadID(),
		Engine:     a.inst.Engine,
		Config:     a.inst.Replica.Master().ConfigVector(),
		Metrics:    a.mcat.Delta(prev, cur),
		Objective:  st.Achieved,
		Quality:    throttled,
		Window:     curAt.Sub(prevAt),
		At:         now,
	}
	if err := a.samples.Observe(sample); err == nil {
		a.uploaded++
		a.m.uploaded.Inc()
	} else {
		a.m.uploadErrors.Inc()
	}
}

// dbCounterMetric is the gauge family of exportDBCounters, one series
// per (counter, instance).
const dbCounterMetric = "autodbaas_simdb_counter"

// exportDBCounters publishes the master engine's semantic counters
// (checkpoints, bgwriter pages, spills, WAL bytes, ...) as labeled
// gauges — the uniform cross-engine export the control plane scrapes.
// It reads the counters into a map it reuses. The series are
// registered at the agent's first tick and live until ReleaseMetrics.
func (a *Agent) exportDBCounters(master *simdb.Engine) {
	a.counterBuf = master.CountersInto(a.counterBuf)
	for sem, v := range a.counterBuf {
		g, ok := a.dbGauges[sem]
		if !ok {
			g = obs.Default().Gauge(dbCounterMetric,
				"Simulated-engine semantic counters, exported uniformly across engines.",
				obs.L("counter", sem), obs.L("instance", a.inst.ID))
			a.dbGauges[sem] = g
		}
		g.Set(v)
	}
}

// ReleaseMetrics removes this instance's autodbaas_simdb_counter series
// from the registry, when the database leaves the system. A series the
// registry holds under another handle is left alone. Call it between
// steps, never concurrently with one.
func (a *Agent) ReleaseMetrics() {
	for sem, g := range a.dbGauges {
		obs.Default().RemoveGauge(g, dbCounterMetric, obs.L("counter", sem), obs.L("instance", a.inst.ID))
	}
	clear(a.dbGauges)
}

// Suppressed returns how many sample uploads the TDE gate suppressed.
func (a *Agent) Suppressed() int { return a.suppressed }
