// Package rl implements the CDBTune-style deep-reinforcement-learning
// tuner: a DDPG actor-critic over the database's metric state, emitting
// knob configurations as continuous actions. It reproduces the RL-tuner
// properties the AutoDBaaS paper discusses — recommendations are cheap
// to produce (no O(n³) refit), but the policy needs many trial-and-error
// steps and is corrupted by low-quality samples, from the very first
// database it tunes.
package rl

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"autodbaas/internal/knobs"
	"autodbaas/internal/metrics"
	"autodbaas/internal/nn"
	"autodbaas/internal/obs"
	"autodbaas/internal/prng"
	"autodbaas/internal/tuner"
)

// Options configures the tuner.
type Options struct {
	Engine knobs.Engine
	// Hidden is the hidden-layer width of actor and critic.
	Hidden int
	// ReplayCap bounds the replay buffer.
	ReplayCap int
	// BatchSize is the SGD mini-batch size.
	BatchSize int
	// Gamma is the reward discount.
	Gamma float64
	// Tau is the soft target-network update rate.
	Tau float64
	// ActorLR / CriticLR are the Adam learning rates.
	ActorLR  float64
	CriticLR float64
	// Noise is the exploration noise scale on actions.
	Noise float64
	Seed  int64
}

// DefaultOptions returns CDBTune-ish defaults scaled for simulation.
func DefaultOptions(engine knobs.Engine) Options {
	return Options{
		Engine:    engine,
		Hidden:    64,
		ReplayCap: 4096,
		BatchSize: 32,
		Gamma:     0.9,
		Tau:       0.01,
		ActorLR:   1e-3,
		CriticLR:  1e-3,
		Noise:     0.1,
	}
}

// transition is one replay-buffer entry.
type transition struct {
	state  []float64
	action []float64
	reward float64
	next   []float64
}

// Tuner is a CDBTune-style DDPG tuner.
type Tuner struct {
	mu sync.Mutex

	opts   Options
	kcat   *knobs.Catalog
	mcat   *metrics.Catalog
	rng    *rand.Rand
	rngSrc *prng.Source // counting source behind rng, for checkpointing

	knobNames []string
	knobIdx   []int // knobNames' catalogue positions
	stateDim  int

	actor, actorTarget   *nn.Network
	critic, criticTarget *nn.Network

	replay []transition
	next   int
	full   bool

	// Per-instance episode memory: previous state/action/objective to
	// build transitions from successive Observe calls.
	episodes map[string]*episode

	observed int
	trained  int

	recommendSeconds *obs.Histogram
	replaySize       *obs.Gauge
	trainSteps       *obs.Counter
}

type episode struct {
	state     []float64
	action    []float64
	objective float64
	valid     bool
}

// New constructs the RL tuner.
func New(opts Options) (*Tuner, error) {
	kcat, err := knobs.CatalogFor(opts.Engine)
	if err != nil {
		return nil, err
	}
	mcat, err := metrics.CatalogFor(string(opts.Engine))
	if err != nil {
		return nil, err
	}
	if opts.Hidden <= 0 {
		opts.Hidden = 64
	}
	if opts.ReplayCap <= 0 {
		opts.ReplayCap = 4096
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = 32
	}
	rng, rngSrc := prng.New(opts.Seed)
	knobNames := kcat.TunableNames()
	stateDim := mcat.Len()
	actDim := len(knobNames)
	mk := func() (*nn.Network, *nn.Network, error) {
		a, err := nn.New(rng, stateDim, nn.LayerSpec{Out: opts.Hidden, Act: nn.ReLU}, nn.LayerSpec{Out: actDim, Act: nn.Sigmoid})
		if err != nil {
			return nil, nil, err
		}
		at, err := nn.New(rng, stateDim, nn.LayerSpec{Out: opts.Hidden, Act: nn.ReLU}, nn.LayerSpec{Out: actDim, Act: nn.Sigmoid})
		if err != nil {
			return nil, nil, err
		}
		if err := at.CopyFrom(a); err != nil {
			return nil, nil, err
		}
		return a, at, nil
	}
	actor, actorTarget, err := mk()
	if err != nil {
		return nil, err
	}
	critic, err := nn.New(rng, stateDim+actDim, nn.LayerSpec{Out: opts.Hidden, Act: nn.ReLU}, nn.LayerSpec{Out: 1, Act: nn.Linear})
	if err != nil {
		return nil, err
	}
	criticTarget, err := nn.New(rng, stateDim+actDim, nn.LayerSpec{Out: opts.Hidden, Act: nn.ReLU}, nn.LayerSpec{Out: 1, Act: nn.Linear})
	if err != nil {
		return nil, err
	}
	if err := criticTarget.CopyFrom(critic); err != nil {
		return nil, err
	}
	return &Tuner{
		opts:         opts,
		kcat:         kcat,
		mcat:         mcat,
		rng:          rng,
		rngSrc:       rngSrc,
		knobNames:    knobNames,
		knobIdx:      kcat.AppendIndices(nil, knobNames),
		stateDim:     stateDim,
		actor:        actor,
		actorTarget:  actorTarget,
		critic:       critic,
		criticTarget: criticTarget,
		replay:       make([]transition, 0, opts.ReplayCap),
		episodes:     make(map[string]*episode),
		recommendSeconds: obs.Default().Histogram("autodbaas_tuner_recommend_seconds",
			"Wall-clock recommendation latency by tuner kind.", nil, obs.L("tuner", "cdbtune-rl")),
		replaySize: obs.Default().Gauge("autodbaas_tuner_rl_replay_buffer_size",
			"Transitions held in the DDPG replay buffer."),
		trainSteps: obs.Default().Counter("autodbaas_tuner_rl_train_steps_total",
			"DDPG SGD updates executed."),
	}, nil
}

// Name implements tuner.Tuner.
func (t *Tuner) Name() string { return "cdbtune-rl" }

// Observed returns how many samples have been ingested.
func (t *Tuner) Observed() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.observed
}

// TrainSteps returns how many SGD updates have run.
func (t *Tuner) TrainSteps() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.trained
}

// state normalizes a metric vector in catalogue order into the network
// input, in place. Values are squashed with x/(1+|x|) after a log-ish
// compression to keep the scale bounded without per-metric statistics.
func state(raw []float64) []float64 {
	for i, v := range raw {
		c := v / 1e6
		raw[i] = c / (1 + abs(c))
	}
	return raw
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Observe implements tuner.Tuner: successive samples from the same
// instance become (s, a, r, s') transitions; the reward is the relative
// objective change, the CDBTune reward shape.
func (t *Tuner) Observe(s tuner.Sample) error {
	if s.Engine != t.opts.Engine {
		return fmt.Errorf("rl: sample for engine %q on a %q tuner", s.Engine, t.opts.Engine)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.observed++
	key := s.WorkloadID
	cur := make([]float64, t.stateDim)
	for i := range cur {
		cur[i] = s.Metrics.At(i)
	}
	cur = state(cur)
	action := make([]float64, len(t.knobIdx))
	t.kcat.NormalizeVectorInto(action, s.Config, t.knobIdx)
	ep, ok := t.episodes[key]
	if !ok {
		ep = &episode{}
		t.episodes[key] = ep
	}
	if ep.valid {
		// The action that produced this sample's objective is this
		// sample's configuration, applied from the previous state.
		reward := 0.0
		if ep.objective > 0 {
			reward = (s.Objective - ep.objective) / ep.objective
		} else if s.Objective > 0 {
			reward = 1
		}
		if reward > 2 {
			reward = 2
		}
		if reward < -2 {
			reward = -2
		}
		t.push(transition{state: ep.state, action: action, reward: reward, next: cur})
		t.trainLocked()
	}
	ep.state = cur
	ep.action = action
	ep.objective = s.Objective
	ep.valid = true
	return nil
}

func (t *Tuner) push(tr transition) {
	if len(t.replay) < t.opts.ReplayCap {
		t.replay = append(t.replay, tr)
		t.replaySize.Set(float64(len(t.replay)))
		return
	}
	t.replay[t.next] = tr
	t.next = (t.next + 1) % t.opts.ReplayCap
	t.full = true
}

// trainLocked runs one DDPG update on a sampled mini-batch.
func (t *Tuner) trainLocked() {
	n := len(t.replay)
	if n < t.opts.BatchSize {
		return
	}
	bs := t.opts.BatchSize
	states := make([][]float64, bs)
	qIn := make([][]float64, bs)
	qTarget := make([][]float64, bs)
	for i := 0; i < bs; i++ {
		tr := t.replay[t.rng.Intn(n)]
		// Critic target: r + γ·Q'(s', π'(s')).
		nextAct, _ := t.actorTarget.Forward(tr.next)
		qNext, _ := t.criticTarget.Forward(concat(tr.next, nextAct))
		y := tr.reward + t.opts.Gamma*qNext[0]
		states[i] = tr.state
		qIn[i] = concat(tr.state, tr.action)
		qTarget[i] = []float64{y}
	}
	if _, err := t.critic.TrainBatch(qIn, qTarget, t.opts.CriticLR); err != nil {
		return
	}
	// Actor update: ascend Q(s, π(s)) — gradient of Q w.r.t. action,
	// back-propagated through the actor.
	actIn := make([][]float64, bs)
	dOut := make([][]float64, bs)
	for i := 0; i < bs; i++ {
		a, err := t.actor.Forward(states[i])
		if err != nil {
			return
		}
		g, err := t.critic.InputGradient(concat(states[i], a))
		if err != nil {
			return
		}
		da := make([]float64, len(a))
		copy(da, g[t.stateDim:])
		// Gradient ascent → negate for the descent-style update.
		for j := range da {
			da[j] = -da[j]
		}
		actIn[i] = states[i]
		dOut[i] = da
	}
	if err := t.actor.TrainWithOutputGrad(actIn, dOut, t.opts.ActorLR); err != nil {
		return
	}
	_ = t.actorTarget.SoftUpdate(t.actor, t.opts.Tau)
	_ = t.criticTarget.SoftUpdate(t.critic, t.opts.Tau)
	t.trained++
	t.trainSteps.Inc()
}

func concat(a, b []float64) []float64 {
	out := make([]float64, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

// Recommend implements tuner.Tuner: a single actor forward pass plus
// exploration noise — constant-time, the RL scalability advantage.
func (t *Tuner) Recommend(req tuner.Request) (tuner.Recommendation, error) {
	start := time.Now()
	defer func() { t.recommendSeconds.Observe(time.Since(start).Seconds()) }()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.observed == 0 {
		return tuner.Recommendation{}, tuner.ErrNotTrained
	}
	st := state(t.mcat.Vector(req.Metrics))
	act, err := t.actor.Forward(st)
	if err != nil {
		return tuner.Recommendation{}, err
	}
	for i := range act {
		act[i] = clamp01(act[i] + t.rng.NormFloat64()*t.opts.Noise)
	}
	cfg := t.kcat.Denormalize(act, t.knobNames)
	full := req.Current.Clone()
	if full == nil {
		full = t.kcat.DefaultConfig()
	}
	for k, v := range cfg {
		full[k] = v
	}
	if req.MemoryBytes > 0 {
		full = t.kcat.FitMemoryBudget(full, knobs.MemoryBudget{TotalBytes: req.MemoryBytes, WorkMemSessions: 8})
	}
	return tuner.Recommendation{
		Config:    full,
		Source:    fmt.Sprintf("ddpg:steps=%d", t.trained),
		TrainedOn: t.observed,
		Cost:      time.Since(start),
	}, nil
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
