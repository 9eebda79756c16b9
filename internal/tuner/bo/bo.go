// Package bo implements the OtterTune-style Bayesian-optimization tuner:
// metric pruning, workload mapping, Lasso knob ranking, and a Gaussian-
// process surrogate searched with upper-confidence-bound acquisition.
// Its pipeline follows Van Aken et al. (SIGMOD'17), which the AutoDBaaS
// paper deploys as its BO-style tuner instance.
//
// The package intentionally reproduces the two properties the paper
// builds on: the O(n³) GPR "recommendation cost" that limits how many
// service instances one tuner deployment can serve, and the model
// corruption caused by training on low-quality production samples
// (captured when the database did not actually need tuning).
package bo

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"time"

	"autodbaas/internal/gp"
	"autodbaas/internal/knobs"
	"autodbaas/internal/lasso"
	"autodbaas/internal/linalg"
	"autodbaas/internal/metrics"
	"autodbaas/internal/obs"
	"autodbaas/internal/prng"
	"autodbaas/internal/tuner"
)

// Options configures the tuner.
type Options struct {
	// Engine selects the knob/metric schema this tuner instance serves.
	Engine knobs.Engine
	// MaxSamplesPerFit caps GPR training-set size (most recent wins).
	// A Recommend fits one exact GP from scratch on at most this many
	// samples, so it bounds the O(n³) recommendation cost.
	MaxSamplesPerFit int
	// Candidates is the acquisition search budget.
	Candidates int
	// UCBBeta is the exploration weight; the paper's accuracy experiment
	// sets hyper-parameters to "least explore", i.e. a small beta.
	UCBBeta float64
	// TopKnobs restricts optimization to the k highest-ranked knobs
	// (0 = all tunable knobs).
	TopKnobs int
	// DisableMapping turns off workload mapping: the GP trains on the
	// target workload's own samples only. Exists for the ablation of the
	// OtterTune experience-transfer stage.
	DisableMapping bool
	Seed           int64
}

// DefaultOptions returns production-ish defaults.
func DefaultOptions(engine knobs.Engine) Options {
	return Options{
		Engine:           engine,
		MaxSamplesPerFit: 400,
		Candidates:       600,
		UCBBeta:          1.2,
		TopKnobs:         10,
	}
}

// Tuner is an OtterTune-style BO tuner instance.
type Tuner struct {
	mu sync.Mutex

	opts   Options
	kcat   *knobs.Catalog
	mcat   *metrics.Catalog
	rng    *rand.Rand
	rngSrc *prng.Source // counting source behind rng, for checkpointing

	knobNames []string // tunable knobs, catalogue order
	knobIdx   []int    // their catalogue positions

	// BgWriterBaseline's metrics: the engine's checkpoint counter and
	// write latency, as catalogue positions.
	ckptIdx, wlatIdx int

	// store is the central repository's sample store, bound when a
	// repository subscribes the tuner; training reads samples from it.
	store *tuner.Store

	// Incrementally maintained per-workload metric-mean vectors, so
	// workload mapping does not rescan every stored sample per request.
	// They follow delivery order, so they are the tuner's own state.
	meanSums   map[string][]float64
	meanCounts map[string]int
	meanOrder  []string
	// delivered is the sum of meanCounts, the training-samples gauge.
	delivered int

	// Working memory reused across calls, so a recommendation does not
	// allocate in proportion to the history it reads. Only rows, yn and
	// gpr carry anything from one call to the next: the kept fit.
	view     []*tuner.Sample // store view: training samples, or one workload's
	idxBuf   []int           // the searched knobs' catalogue positions
	rowBuf   []float64       // normalized training configs, row-major
	rows     [][]float64     // row headers into rowBuf
	yn       []float64       // normalized objectives
	gpr      *gp.Regressor   // fitted on rows and yn while fit.key.ok
	target   []float64       // a request's metrics in catalogue order
	pruner   metrics.Pruner  // workload mapping's metric pruning
	mapBuf   []float64       // workload mapping: mean rows + target
	mapRows  [][]float64     // row headers into mapBuf
	projBuf  []float64       // pruned, then decile-binned, mapping rows
	projRows [][]float64     // row headers into projBuf
	decile   []float64       // metrics.DecileInto's column ranges

	// fit is the last successful fit, which a Recommend with the same
	// key reuses. It is not state: checkpoints leave it out, and a
	// restored tuner refits to the same model.
	fit keptFit

	recommendSeconds *obs.Histogram
	gprFitSeconds    *obs.Histogram
	trainingSamples  *obs.Gauge
}

// New constructs a BO tuner.
func New(opts Options) (*Tuner, error) {
	kcat, err := knobs.CatalogFor(opts.Engine)
	if err != nil {
		return nil, err
	}
	mcat, err := metrics.CatalogFor(string(opts.Engine))
	if err != nil {
		return nil, err
	}
	if opts.MaxSamplesPerFit <= 0 {
		opts.MaxSamplesPerFit = 400
	}
	if opts.Candidates <= 0 {
		opts.Candidates = 600
	}
	if opts.UCBBeta < 0 {
		opts.UCBBeta = 1.2
	}
	ckpt := "checkpoints_req"
	if opts.Engine == knobs.MySQL {
		ckpt = "innodb_checkpoints"
	}
	ckptIdx, ok1 := mcat.Index(ckpt)
	wlatIdx, ok2 := mcat.Index("disk_write_latency_ms")
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("bo: %s metric catalogue lacks the bgwriter baseline's metrics", opts.Engine)
	}
	reg := obs.Default()
	rng, rngSrc := prng.New(opts.Seed)
	knobNames := kcat.TunableNames()
	return &Tuner{
		opts:       opts,
		kcat:       kcat,
		mcat:       mcat,
		rng:        rng,
		rngSrc:     rngSrc,
		knobNames:  knobNames,
		knobIdx:    kcat.AppendIndices(nil, knobNames),
		ckptIdx:    ckptIdx,
		wlatIdx:    wlatIdx,
		meanSums:   make(map[string][]float64),
		meanCounts: make(map[string]int),
		gpr:        gp.NewRegressor(nil, 1e-3),
		recommendSeconds: reg.Histogram("autodbaas_tuner_recommend_seconds",
			"Wall-clock recommendation latency by tuner kind.", nil, obs.L("tuner", "ottertune-bo")),
		gprFitSeconds: reg.Histogram("autodbaas_tuner_gpr_fit_seconds",
			"Wall-clock GPR training time per recommendation (the O(n³) cost).", nil),
		trainingSamples: reg.Gauge("autodbaas_tuner_training_samples",
			"Training samples held by a tuner kind.", obs.L("tuner", "ottertune-bo")),
	}, nil
}

// keptFit describes the fit gpr, rows and yn hold. Its key and metric
// vector name what a fit reads besides Options: the request's workload,
// throttle class and metrics, the store (which only grows, so its
// length names its contents) and the delivered metric means. The rest
// of a request (Current, MemoryBytes, Constraint) only the search reads.
type keptFit struct {
	key     fitKey
	metrics []float64 // the request's catalogue vector, compared bit for bit
	names   []string  // the searched knobs
	source  string    // the Recommendation's Source
}

type fitKey struct {
	ok                  bool // false: no fit is kept
	workload            string
	class               knobs.Class // -1 when the request names none
	storeLen, delivered int
}

// Name implements tuner.Tuner.
func (t *Tuner) Name() string { return "ottertune-bo" }

// BindStore points the tuner at the central repository's sample store,
// which it trains from. repository.Subscribe calls it.
func (t *Tuner) BindStore(s *tuner.Store) {
	t.mu.Lock()
	t.store = s
	t.fit.key.ok = false
	t.mu.Unlock()
}

// Observe implements tuner.Tuner. It is the repository's delivery hook:
// the sample itself already sits in the bound store, so Observe only
// folds its metrics into the workload's running mean.
func (t *Tuner) Observe(s tuner.Sample) error {
	if s.Engine != t.opts.Engine {
		return fmt.Errorf("bo: sample for engine %q on a %q tuner", s.Engine, t.opts.Engine)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.store == nil {
		return fmt.Errorf("bo: sample delivered to a tuner no repository has bound")
	}
	sum, ok := t.meanSums[s.WorkloadID]
	if !ok {
		sum = make([]float64, t.mcat.Len())
		t.meanSums[s.WorkloadID] = sum
		t.meanOrder = append(t.meanOrder, s.WorkloadID)
	}
	for i := range sum {
		sum[i] += s.Metrics.At(i)
	}
	t.meanCounts[s.WorkloadID]++
	t.delivered++
	t.trainingSamples.Set(float64(t.delivered))
	return nil
}

// viewLocked appends the workload's samples of the tuner's engine from
// the bound store to dst, in store order, capped at max as
// tuner.Store.View allows (max ≤ 0: all of them).
func (t *Tuner) viewLocked(dst []*tuner.Sample, workloadID string, max int) []*tuner.Sample {
	if t.store == nil {
		return dst
	}
	return t.store.View(dst, workloadID, t.opts.Engine, max)
}

// MapWorkload finds the stored workload whose deciled mean metric vector
// is closest to the target sample — OtterTune's workload mapping. It
// returns the workload ID and the mapping distance.
func (t *Tuner) MapWorkload(target metrics.Snapshot) (string, float64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.mapWorkloadLocked(target)
}

func (t *Tuner) mapWorkloadLocked(target metrics.Snapshot) (string, float64, bool) {
	ids := t.meanOrder
	if len(ids) == 0 {
		return "", 0, false
	}
	// Build the binning reference over all stored means + target.
	rows := resizeRows(&t.mapBuf, &t.mapRows, len(ids)+1, t.mcat.Len())
	for i, id := range ids {
		sum := t.meanSums[id]
		n := float64(t.meanCounts[id])
		for j := range sum {
			rows[i][j] = sum[j] / n
		}
	}
	t.mcat.VectorInto(rows[len(ids)], target)
	keep := t.pruner.Prune(rows, 1e-12, 0.98)
	if len(keep) == 0 {
		keep = append(keep, 0)
	}
	binned := resizeRows(&t.projBuf, &t.projRows, len(rows), len(keep))
	for i, r := range rows {
		for c, j := range keep {
			binned[i][c] = r[j]
		}
	}
	metrics.DecileInto(binned, binned, &t.decile)
	targetBin := binned[len(binned)-1]
	bestID, bestD := "", math.Inf(1)
	for i, id := range ids {
		d := linalg.EuclideanDistance(binned[i], targetBin)
		if d < bestD {
			bestID, bestD = id, d
		}
	}
	return bestID, bestD, true
}

// resizeRows sizes a reused row-major buffer to n rows of p columns and
// returns its row headers; the contents are unspecified. Both grow to
// twice what they must hold, so a caller that adds a row at a time
// (workload mapping, per new donor) reallocates O(log n) times.
func resizeRows(buf *[]float64, hdrs *[][]float64, n, p int) [][]float64 {
	if cap(*buf) < n*p {
		*buf = make([]float64, n*p, 2*n*p)
	}
	if cap(*hdrs) < n {
		*hdrs = make([][]float64, n, 2*n)
	}
	data, rows := (*buf)[:n*p], (*hdrs)[:n]
	for i := range rows {
		rows[i] = data[i*p : (i+1)*p : (i+1)*p]
	}
	*buf, *hdrs = data, rows
	return rows
}

// RankKnobs runs the Lasso regularization path over the given samples
// and returns tunable knob names by decreasing importance — the ranking
// the Fig. 15 accuracy experiment compares throttle classes against.
func (t *Tuner) RankKnobs(samples []tuner.Sample) ([]string, error) {
	ptrs := make([]*tuner.Sample, len(samples))
	for i := range samples {
		ptrs[i] = &samples[i]
	}
	return t.rankKnobs(ptrs)
}

func (t *Tuner) rankKnobs(samples []*tuner.Sample) ([]string, error) {
	if len(samples) < minTraining {
		return nil, tuner.ErrNotTrained
	}
	x := make([][]float64, len(samples))
	y := make([]float64, len(samples))
	for i, s := range samples {
		x[i] = make([]float64, len(t.knobIdx))
		t.kcat.NormalizeVectorInto(x[i], s.Config, t.knobIdx)
		y[i] = s.Objective
	}
	imps, err := lasso.RankPath(x, y, []float64{0.5, 0.2, 0.08, 0.03, 0.01})
	if err != nil {
		return nil, err
	}
	out := make([]string, len(imps))
	for i, im := range imps {
		out[i] = t.knobNames[im.Index]
	}
	return out, nil
}

// minTraining is the fewest samples a knob ranking or a GP fit uses.
const minTraining = 4

// Recommend implements tuner.Tuner: map the workload, assemble training
// data (target + mapped), fit the GP and maximize UCB over candidates.
// When the kept fit's key matches the request, as for each same-class
// throttle of one detection round, the fit is already in hand and only
// the candidate search runs; it draws from the tuner's RNG exactly as
// after a refit.
func (t *Tuner) Recommend(req tuner.Request) (tuner.Recommendation, error) {
	start := time.Now()
	defer func() { t.recommendSeconds.Observe(time.Since(start).Seconds()) }()
	t.mu.Lock()
	defer t.mu.Unlock()

	key := fitKey{ok: true, workload: req.WorkloadID, class: -1, delivered: t.delivered}
	if req.ThrottleClass != nil {
		key.class = *req.ThrottleClass
	}
	if t.store != nil {
		key.storeLen = t.store.Len()
	}
	target := slices.Grow(t.target[:0], t.mcat.Len())[:t.mcat.Len()]
	t.target = target
	t.mcat.VectorInto(target, req.Metrics)
	if key != t.fit.key || !slices.EqualFunc(target, t.fit.metrics, func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b)
	}) {
		if err := t.fitLocked(req, key, target); err != nil {
			return tuner.Recommendation{}, err
		}
	}
	return t.searchLocked(req, start), nil
}

// fitLocked assembles the training set for req, fits the GP on it and
// keeps the fit under key. On failure no fit is kept.
func (t *Tuner) fitLocked(req tuner.Request, key fitKey, target []float64) error {
	t.fit.key.ok = false
	// Most recent samples win when over the fit cap, so each workload's
	// view only needs its latest fitCap samples (never fewer than the
	// minTraining the not-trained check counts).
	fitCap := max(t.opts.MaxSamplesPerFit, minTraining)
	training := t.viewLocked(t.view[:0], req.WorkloadID, fitCap)
	mappedID := req.WorkloadID
	if !t.opts.DisableMapping {
		id, _, ok := t.mapWorkloadLocked(req.Metrics)
		if ok && id != req.WorkloadID {
			mappedID = id
			training = t.viewLocked(training, id, fitCap)
		}
	}
	t.view = training
	if len(training) < minTraining {
		return tuner.ErrNotTrained
	}
	slices.SortStableFunc(training, func(a, b *tuner.Sample) int { return a.At.Compare(b.At) })
	if len(training) > t.opts.MaxSamplesPerFit {
		training = training[len(training)-t.opts.MaxSamplesPerFit:]
	}

	names := t.searchKnobsLocked(training, req.ThrottleClass)
	x := resizeRows(&t.rowBuf, &t.rows, len(training), len(names))
	if cap(t.yn) < len(training) {
		t.yn = make([]float64, len(training))
	}
	yn := t.yn[:len(training)]
	t.yn = yn
	var ymax float64
	for _, s := range training {
		if s.Objective > ymax {
			ymax = s.Objective
		}
	}
	if ymax <= 0 {
		ymax = 1
	}
	idx := t.kcat.AppendIndices(t.idxBuf[:0], names)
	t.idxBuf = idx
	for i, s := range training {
		t.kcat.NormalizeVectorInto(x[i], s.Config, idx)
		yn[i] = s.Objective / ymax
	}
	fitStart := time.Now()
	model := t.gpr
	model.Kernel = gp.NewSEARD(len(names), 0.35, 1.0)
	if err := model.Fit(x, yn); err != nil {
		return fmt.Errorf("bo: GPR fit: %w", err)
	}
	t.gprFitSeconds.Observe(time.Since(fitStart).Seconds())

	// Concatenated rather than fmt.Sprintf: fmt's sync.Pool would make
	// the allocation count vary under -race.
	t.fit = keptFit{key: key, metrics: append(t.fit.metrics[:0], target...), names: names,
		source: "gpr:mapped=" + mappedID + ":n=" + strconv.Itoa(len(training)) + ":knobs=" + strconv.Itoa(len(names))}
	return nil
}

// searchLocked maximizes UCB over candidates under the kept fit and
// returns the recommendation for req.
func (t *Tuner) searchLocked(req tuner.Request, start time.Time) tuner.Recommendation {
	names, x, yn, model := t.fit.names, t.rows, t.yn, t.gpr

	// Constrained suggestion (the safety gate's trust region): filter
	// candidates after generation so the RNG stream advances identically
	// whether or not a constraint is present — resampling after a veto
	// stays deterministic.
	var trCenter []float64
	trRadius := math.Inf(1)
	var exclude []knobs.Config
	if req.Constraint != nil {
		if req.Constraint.Center != nil && req.Constraint.Radius > 0 {
			trCenter = t.kcat.Normalize(req.Constraint.Center, names)
			trRadius = req.Constraint.Radius
		}
		exclude = req.Constraint.Exclude
	}
	scale := math.Sqrt(float64(len(names)))
	inRegion := func(vec []float64) bool {
		if trCenter == nil {
			return true
		}
		return linalg.EuclideanDistance(vec, trCenter)/scale <= trRadius
	}
	// isExcluded compares only the searched knobs: the rest of the
	// final config comes from req.Current either way, so searched-knob
	// equality with a vetoed config means the full config would repeat.
	isExcluded := func(vec []float64) bool {
		if len(exclude) == 0 {
			return false
		}
		cfg := t.kcat.Denormalize(vec, names)
		for _, ex := range exclude {
			same := true
			for _, n := range names {
				if cfg[n] != ex[n] {
					same = false
					break
				}
			}
			if same {
				return true
			}
		}
		return false
	}

	// Acquisition: random candidates + perturbations of the incumbent.
	bestIdx := 0
	for i := range yn {
		if yn[i] > yn[bestIdx] {
			bestIdx = i
		}
	}
	incumbent := x[bestIdx]
	bestVec := append([]float64(nil), incumbent...)
	bestScore := math.Inf(-1)
	cand := make([]float64, len(names)) // reused across candidates; UCB does not retain it
	for c := 0; c < t.opts.Candidates; c++ {
		if c%2 == 0 {
			for d := range cand {
				cand[d] = t.rng.Float64()
			}
		} else {
			for d := range cand {
				cand[d] = clamp01(incumbent[d] + t.rng.NormFloat64()*0.15)
			}
		}
		if !inRegion(cand) {
			continue
		}
		// UCBAbove skips the triangular solve only for a candidate whose
		// score could not pass the comparison below anyway.
		score, ok, err := model.UCBAbove(cand, t.opts.UCBBeta, bestScore)
		if err != nil || !ok {
			continue
		}
		if score > bestScore {
			if isExcluded(cand) {
				continue
			}
			bestScore = score
			copy(bestVec, cand)
		}
	}

	cfg := t.kcat.Denormalize(bestVec, names)
	// Keep non-searched knobs at their current values.
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
		Source:    t.fit.source,
		TrainedOn: len(yn),
		Cost:      time.Since(start),
	}
}

// searchKnobsLocked picks the knob subspace to optimize: the throttled
// class when given, otherwise the Lasso top-k (falling back to all
// tunable knobs).
func (t *Tuner) searchKnobsLocked(training []*tuner.Sample, cls *knobs.Class) []string {
	if cls != nil {
		var names []string
		for _, n := range t.kcat.NamesByClass(*cls) {
			if !t.kcat.Def(n).Restart {
				names = append(names, n)
			}
		}
		if len(names) > 0 {
			return names
		}
	}
	if t.opts.TopKnobs > 0 && t.opts.TopKnobs < len(t.knobNames) {
		if ranked, err := t.rankKnobs(training); err == nil {
			return ranked[:t.opts.TopKnobs]
		}
	}
	return t.knobNames
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

// BgWriterBaseline implements the TDE's Baseline interface (§3.2): the
// live metric sample is mapped to the most similar stored workload, and
// that workload's best-throughput sample supplies the reference
// checkpoint rate and disk-write latency ("for B, the timestamp value
// for the most optimal points observed are captured ... and the disk
// latency readings are collected"). It reports ok=false until some
// mapped workload has a usable sample, letting callers fall back to the
// static default.
func (t *Tuner) BgWriterBaseline(sample metrics.Snapshot) (ckptPerSec, diskLatencyMs float64, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	mapped, _, found := t.mapWorkloadLocked(sample)
	if !found {
		return 0, 0, false
	}
	var best *tuner.Sample
	t.view = t.viewLocked(t.view[:0], mapped, 0)
	for _, s := range t.view {
		if s.Window <= 0 {
			continue
		}
		if best == nil || s.Objective > best.Objective {
			best = s
		}
	}
	if best == nil {
		return 0, 0, false
	}
	lat := best.Metrics.At(t.wlatIdx)
	if lat <= 0 {
		return 0, 0, false
	}
	return best.Metrics.At(t.ckptIdx) / best.Window.Seconds(), lat, true
}
