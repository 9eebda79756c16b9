package bo

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"autodbaas/internal/gp"
	"autodbaas/internal/knobs"
	"autodbaas/internal/lasso"
	"autodbaas/internal/linalg"
	"autodbaas/internal/metrics"
	"autodbaas/internal/repository"
	"autodbaas/internal/tuner"
)

// referenceRecommend is Recommend as it was before the tuner reused its
// working memory and its last fit: it copies the stored samples, sorts
// the copies, maps the workload over freshly allocated rows, fits a new
// GP on every call and scores every candidate with the full UCB.
// Recommend must return exactly what it returns and draw exactly as
// many random numbers.
func referenceRecommend(t *Tuner, req tuner.Request) (tuner.Recommendation, error) {
	t.mu.Lock()
	defer t.mu.Unlock()

	training := referenceSamples(t, req.WorkloadID)
	mappedID := req.WorkloadID
	if !t.opts.DisableMapping {
		id, _, ok := referenceMapWorkload(t, req.Metrics)
		if ok && id != req.WorkloadID {
			mappedID = id
			training = append(training, referenceSamples(t, id)...)
		}
	}
	if len(training) < 4 {
		return tuner.Recommendation{}, tuner.ErrNotTrained
	}
	sort.SliceStable(training, func(i, j int) bool { return training[i].At.Before(training[j].At) })
	if len(training) > t.opts.MaxSamplesPerFit {
		training = training[len(training)-t.opts.MaxSamplesPerFit:]
	}

	names := referenceSearchKnobs(t, training, req.ThrottleClass)
	x := make([][]float64, len(training))
	yn := make([]float64, len(training))
	var ymax float64
	for _, s := range training {
		if s.Objective > ymax {
			ymax = s.Objective
		}
	}
	if ymax <= 0 {
		ymax = 1
	}
	for i, s := range training {
		x[i] = t.kcat.Normalize(configOf(s), names)
		yn[i] = s.Objective / ymax
	}
	model := gp.NewRegressor(gp.NewSEARD(len(names), 0.35, 1.0), 1e-3)
	if err := model.Fit(x, yn); err != nil {
		return tuner.Recommendation{}, fmt.Errorf("bo: GPR fit: %w", err)
	}

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

	bestIdx := 0
	for i := range yn {
		if yn[i] > yn[bestIdx] {
			bestIdx = i
		}
	}
	incumbent := x[bestIdx]
	bestVec := append([]float64(nil), incumbent...)
	bestScore := math.Inf(-1)
	cand := make([]float64, len(names))
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
		score, err := model.UCB(cand, t.opts.UCBBeta)
		if err != nil {
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
	src := fmt.Sprintf("gpr:mapped=%s:n=%d:knobs=%d", mappedID, len(training), len(names))
	return tuner.Recommendation{Config: full, Source: src, TrainedOn: len(training)}, nil
}

// referenceSamples copies the workload's samples of the tuner's engine
// out of the store.
func referenceSamples(t *Tuner, workloadID string) []tuner.Sample {
	all := t.store.Samples(workloadID)
	own := all[:0]
	for _, s := range all {
		if s.Engine == t.opts.Engine {
			own = append(own, s)
		}
	}
	return own
}

// referenceMapWorkload is workload mapping over freshly allocated rows.
func referenceMapWorkload(t *Tuner, target metrics.Snapshot) (string, float64, bool) {
	ids := t.meanOrder
	if len(ids) == 0 {
		return "", 0, false
	}
	rows := make([][]float64, 0, len(ids)+1)
	for _, id := range ids {
		sum := t.meanSums[id]
		n := float64(t.meanCounts[id])
		mean := make([]float64, len(sum))
		for i := range sum {
			mean[i] = sum[i] / n
		}
		rows = append(rows, mean)
	}
	rows = append(rows, t.mcat.Vector(target))
	keep := metrics.Prune(rows, 1e-12, 0.98)
	if len(keep) == 0 {
		keep = []int{0}
	}
	pruned := make([][]float64, len(rows))
	for i, r := range rows {
		pruned[i] = metrics.Project(r, keep)
	}
	binned := metrics.Decile(pruned)
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

// referenceSearchKnobs picks the throttled class, else the Lasso top-k
// over copied samples, else every tunable knob.
func referenceSearchKnobs(t *Tuner, training []tuner.Sample, cls *knobs.Class) []string {
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
	if t.opts.TopKnobs > 0 && t.opts.TopKnobs < len(t.knobNames) && len(training) >= 4 {
		x := make([][]float64, len(training))
		y := make([]float64, len(training))
		for i, s := range training {
			x[i] = t.kcat.Normalize(configOf(s), t.knobNames)
			y[i] = s.Objective
		}
		if imps, err := lasso.RankPath(x, y, []float64{0.5, 0.2, 0.08, 0.03, 0.01}); err == nil {
			out := make([]string, t.opts.TopKnobs)
			for i := range out {
				out[i] = t.knobNames[imps[i].Index]
			}
			return out
		}
	}
	return t.knobNames
}

// referenceBgWriterBaseline is BgWriterBaseline over copied samples.
func referenceBgWriterBaseline(t *Tuner, sample metrics.Snapshot) (float64, float64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	mapped, _, found := referenceMapWorkload(t, sample)
	if !found {
		return 0, 0, false
	}
	var best *tuner.Sample
	samples := referenceSamples(t, mapped)
	for i := range samples {
		if s := &samples[i]; s.Window > 0 && (best == nil || s.Objective > best.Objective) {
			best = s
		}
	}
	if best == nil || metricsOf(*best)["disk_write_latency_ms"] <= 0 {
		return 0, 0, false
	}
	return metricsOf(*best)["checkpoints_req"] / best.Window.Seconds(), metricsOf(*best)["disk_write_latency_ms"], true
}

// equivalenceCase is one point of the TestRecommendMatchesReference grid.
type equivalenceCase struct {
	name       string
	opts       Options
	throttle   bool // request a knob class; false takes the Lasso ranking
	constraint bool // trust region around a stored config, plus Exclude
	perUpload  int  // samples uploaded per workload between requests
	atStep     int  // samples sharing one At (ties for the stable sort)
	shuffleAt  bool // upload each batch out of At order
	mysql      bool // MySQL samples share the PostgreSQL workload IDs
	duplicates bool // every config identical: a rank-one kernel before the noise
	// pattern replaces each call's single request with a sequence that
	// a kept fit could serve wrongly (see runEquivalence).
	pattern string
}

// TestRecommendMatchesReference: over a seeded grid, Recommend returns
// the reference's Config, Source and TrainedOn after every call and
// leaves the RNG at the same position, and BgWriterBaseline agrees too.
func TestRecommendMatchesReference(t *testing.T) {
	base := Options{Engine: knobs.Postgres, Candidates: 60, MaxSamplesPerFit: 60, UCBBeta: 0.5}
	with := func(f func(*Options)) Options {
		o := base
		f(&o)
		return o
	}
	cases := []equivalenceCase{
		{name: "mapping", opts: base, throttle: true, perUpload: 6},
		{name: "no-mapping", opts: with(func(o *Options) { o.DisableMapping = true }), throttle: true, perUpload: 6},
		{name: "lasso-ranking", opts: with(func(o *Options) { o.TopKnobs = 6 }), perUpload: 6},
		{name: "lasso-no-mapping", opts: with(func(o *Options) { o.TopKnobs = 4; o.DisableMapping = true }), perUpload: 5},
		{name: "trust-region-exclude", opts: base, throttle: true, constraint: true, perUpload: 6},
		{name: "trust-region-lasso", opts: with(func(o *Options) { o.TopKnobs = 5 }), constraint: true, perUpload: 6},
		{name: "over-fit-cap", opts: with(func(o *Options) { o.MaxSamplesPerFit = 9 }), throttle: true, perUpload: 8},
		{name: "fit-cap-below-minimum", opts: with(func(o *Options) { o.MaxSamplesPerFit = 2 }), throttle: true, perUpload: 1},
		{name: "equal-at", opts: with(func(o *Options) { o.MaxSamplesPerFit = 11 }), throttle: true, perUpload: 6, atStep: 4},
		{name: "out-of-order-at", opts: with(func(o *Options) { o.MaxSamplesPerFit = 10 }), throttle: true, perUpload: 6, atStep: 2, shuffleAt: true},
		{name: "two-engines", opts: with(func(o *Options) { o.MaxSamplesPerFit = 12 }), throttle: true, perUpload: 6, mysql: true},
		{name: "beta-zero", opts: with(func(o *Options) { o.UCBBeta = 0 }), throttle: true, perUpload: 6, atStep: 1000},
		{name: "near-duplicates", opts: with(func(o *Options) { o.TopKnobs = 3 }), perUpload: 6, duplicates: true},
		{name: "resample", opts: base, throttle: true, constraint: true, perUpload: 6, pattern: "resample"},
		{name: "resample-lasso", opts: with(func(o *Options) { o.TopKnobs = 5 }), perUpload: 6, pattern: "resample"},
		{name: "round", opts: base, throttle: true, perUpload: 6, pattern: "round"},
		{name: "round-no-mapping", opts: with(func(o *Options) { o.DisableMapping = true }), throttle: true, perUpload: 6, pattern: "round"},
		{name: "restore", opts: base, throttle: true, perUpload: 6, pattern: "restore"},
		{name: "delivery", opts: base, throttle: true, perUpload: 6, pattern: "delivery"},
	}
	for ci, tc := range cases {
		for _, seed := range []int64{1, 2} {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				runEquivalence(t, tc, seed*100+int64(ci))
			})
		}
	}
}

// runEquivalence drives got and the reference through the same calls.
// By tc.pattern, a call issues:
//   - "": one request
//   - "resample": one request three times, Exclude growing by each
//     answer, as the safety gate's resample loop grows it
//   - "round": a detection round's throttles, two of one class and one
//     of another; then an upload, and the last request again
//   - "restore": one request, a restore that moves the metric means
//     between workloads (same sample count, same store), the request
//     again
//   - "delivery": one request; the same after a sample of its workload
//     reaches the store but not the tuners; after a crafted sample of
//     another workload reaches the store; after that sample's delayed
//     delivery moves the mapping to its workload; and once more
//
// The last three must change the mapped workload at least once, or a
// kept fit keyed without the means would pass unnoticed.
func runEquivalence(t *testing.T, tc equivalenceCase, seed int64) {
	opts := tc.opts
	opts.Seed = seed
	got, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	repo := repository.New()
	repo.Subscribe(got)
	repo.Subscribe(want)

	rng := rand.New(rand.NewSource(seed))
	kcat, mcat := got.kcat, got.mcat
	mykcat, mymcat := knobs.MySQLCatalog(), metrics.MySQLCatalog()
	workloads := []string{"wl-a", "wl-b", "wl-c"}
	dupCfg := synthSample(kcat, mcat, rng, "", 0).Config
	var uploaded []tuner.Sample
	clock := 0
	upload := func() {
		var batch []tuner.Sample
		for _, wid := range workloads {
			for k := 0; k < tc.perUpload; k++ {
				at := clock
				if tc.atStep > 0 {
					at = clock / tc.atStep
				}
				clock++
				s := synthSample(kcat, mcat, rng, wid, at)
				if tc.duplicates {
					s.Config = dupCfg
				}
				batch = append(batch, s)
				if tc.mysql {
					my := synthSample(mykcat, mymcat, rng, wid, at)
					my.Engine = knobs.MySQL
					batch = append(batch, my)
				}
			}
		}
		if tc.shuffleAt {
			rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
		}
		for _, s := range batch {
			_ = repo.Observe(s) // a PostgreSQL tuner rejects MySQL samples; the store keeps them
			if s.Engine == knobs.Postgres {
				uploaded = append(uploaded, s)
			}
		}
	}

	var exclude []knobs.Config
	remapped := 0
	for call := 0; call < 10; call++ {
		if call%2 == 0 {
			upload()
		}
		probe := uploaded[rng.Intn(len(uploaded))]
		req := tuner.Request{Engine: knobs.Postgres, WorkloadID: probe.WorkloadID, Metrics: metricsOf(probe), Current: configOf(probe)}
		switch call % 5 {
		case 1:
			req.WorkloadID = "wl-unseen" // trains on a mapped workload only
		case 2:
			req.MemoryBytes = 4 << 30
		case 3:
			req.Current = nil
		}
		if tc.throttle {
			cls := []knobs.Class{knobs.BgWriter, knobs.Memory, knobs.AsyncPlanner}[call%3]
			req.ThrottleClass = &cls
		}
		if tc.constraint {
			center := configOf(uploaded[rng.Intn(len(uploaded))])
			req.Constraint = &tuner.Constraint{Center: center, Radius: 0.15 + 0.1*float64(call%3), Exclude: exclude}
		}

		// check issues req to both tuners and compares the answers; it
		// returns got's Source, empty when got was not trained.
		step := 0
		check := func(req tuner.Request) (tuner.Recommendation, bool) {
			t.Helper()
			step++
			wantRec, wantErr := referenceRecommend(want, req)
			gotRec, gotErr := got.Recommend(req)
			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("call %d.%d: err = %v, reference %v", call, step, gotErr, wantErr)
			}
			if gotErr == nil {
				if gotRec.Source != wantRec.Source || gotRec.TrainedOn != wantRec.TrainedOn {
					t.Fatalf("call %d.%d: source %q trained on %d, reference %q on %d", call, step, gotRec.Source, gotRec.TrainedOn, wantRec.Source, wantRec.TrainedOn)
				}
				if !reflect.DeepEqual(gotRec.Config, wantRec.Config) {
					t.Fatalf("call %d.%d: config differs from the reference\n  got:  %v\n  want: %v", call, step, gotRec.Config, wantRec.Config)
				}
			} else if !errors.Is(gotErr, tuner.ErrNotTrained) {
				t.Fatalf("call %d.%d: unexpected error %v", call, step, gotErr)
			}
			if g, w := got.rngSrc.State(), want.rngSrc.State(); g != w {
				t.Fatalf("call %d.%d: RNG at %+v, reference at %+v", call, step, g, w)
			}
			gr, gl, gok := got.BgWriterBaseline(metricsOf(probe))
			wr, wl, wok := referenceBgWriterBaseline(want, metricsOf(probe))
			if gr != wr || gl != wl || gok != wok {
				t.Fatalf("call %d.%d: baseline (%g, %g, %v), reference (%g, %g, %v)", call, step, gr, gl, gok, wr, wl, wok)
			}
			return gotRec, gotErr == nil
		}
		// moved counts a pair of answers whose mapped workloads differ.
		moved := func(before, after tuner.Recommendation) {
			if before.Source != "" && after.Source != "" && mappedOf(before) != mappedOf(after) {
				remapped++
			}
		}

		switch tc.pattern {
		case "":
			if rec, ok := check(req); ok {
				exclude = append(exclude, rec.Config)
			}
		case "resample":
			var c tuner.Constraint
			if req.Constraint != nil {
				c = *req.Constraint
			}
			c.Exclude = slices.Clone(c.Exclude)
			req.Constraint = &c
			for r := 0; r < 3; r++ {
				rec, ok := check(req)
				if !ok {
					break
				}
				c.Exclude = append(c.Exclude, rec.Config)
			}
		case "round":
			classes := []knobs.Class{knobs.Memory, knobs.BgWriter, knobs.AsyncPlanner}
			a, b := classes[call%3], classes[(call+1)%3]
			reqB := req
			req.ThrottleClass, reqB.ThrottleClass = &a, &b
			check(req)
			check(req)
			check(reqB)
			upload()
			check(reqB)
		case "restore":
			before, _ := check(req)
			st := got.CheckpointState()
			ids := st.MeanOrder
			sums, counts := make([][]float64, len(ids)), make([]int, len(ids))
			for i := range ids {
				next := ids[(i+1)%len(ids)]
				sums[i], counts[i] = st.MeanSums[next], st.MeanCounts[next]
			}
			for i, id := range ids {
				st.MeanSums[id], st.MeanCounts[id] = sums[i], counts[i]
			}
			for _, tn := range []*Tuner{got, want} {
				if err := tn.RestoreCheckpointState(st); err != nil {
					t.Fatal(err)
				}
			}
			after, _ := check(req)
			moved(before, after)
		case "delivery":
			check(req)
			own := synthSample(kcat, mcat, rng, req.WorkloadID, clock)
			clock++
			got.store.Add(own)
			check(req)
			mapped, _, _ := referenceMapWorkload(want, req.Metrics)
			other := ""
			for _, id := range want.meanOrder {
				if id != mapped && id != req.WorkloadID {
					other = id
					break
				}
			}
			crafted := craftMean(kcat, mcat, rng, want, other, req.Metrics, clock)
			clock++
			got.store.Add(crafted)
			before, _ := check(req)
			for _, tn := range []*Tuner{got, want} {
				if err := tn.Observe(crafted); err != nil {
					t.Fatal(err)
				}
			}
			after, _ := check(req)
			moved(before, after)
			check(req)
		default:
			t.Fatalf("unknown pattern %q", tc.pattern)
		}
	}
	if tc.pattern == "restore" || tc.pattern == "delivery" {
		if remapped == 0 {
			t.Fatalf("%s: no call changed the mapped workload; the case proves nothing about the key", tc.pattern)
		}
	}
}

// mappedOf returns the mapped workload a recommendation's Source names.
func mappedOf(rec tuner.Recommendation) string {
	mapped, _, _ := strings.Cut(strings.TrimPrefix(rec.Source, "gpr:mapped="), ":")
	return mapped
}

// craftMean returns a sample of workload id whose delivery makes id's
// metric mean, in t's bookkeeping, equal target to within rounding, so
// that workload mapping then picks id for target.
func craftMean(kcat *knobs.Catalog, mcat *metrics.Catalog, rng *rand.Rand, t *Tuner, id string, target metrics.Snapshot, at int) tuner.Sample {
	s := synthSample(kcat, mcat, rng, id, at)
	k := float64(t.meanCounts[id])
	sum := t.meanSums[id]
	snap := make(metrics.Snapshot, mcat.Len())
	for i, name := range mcat.Names() {
		snap[name] = (k+1)*target[name] - sum[i]
	}
	return withMaps(s, configOf(s), snap)
}

// warmRecommender builds a tuner over history stored samples of two
// workloads and returns it with a request for the last one's workload.
func warmRecommender(t *testing.T, history int) (*Tuner, tuner.Request) {
	tn, repo := newBound(t, Options{Engine: knobs.Postgres, Candidates: 60, MaxSamplesPerFit: 40, UCBBeta: 0.5, Seed: 3})
	rng := rand.New(rand.NewSource(5))
	var last tuner.Sample
	for i := 0; i < history; i++ {
		last = synthSample(tn.kcat, tn.mcat, rng, fmt.Sprintf("wl-%d", i%2), i)
		if err := repo.Observe(last); err != nil {
			t.Fatal(err)
		}
	}
	return tn, tuner.Request{Engine: knobs.Postgres, WorkloadID: last.WorkloadID, Metrics: metricsOf(last), Current: configOf(last)}
}

// recommendAllocs returns the objects one warm Recommend allocates, and
// how many of the measured calls fit the GP. With alternate set, calls
// alternate between two throttle classes, so none can reuse the last
// fit; otherwise every call repeats one request.
func recommendAllocs(t *testing.T, tn *Tuner, req tuner.Request, alternate bool) (allocs float64, fits uint64) {
	classes := [2]knobs.Class{knobs.BgWriter, knobs.Memory}
	calls := 0
	recommend := func() {
		req.ThrottleClass = &classes[0]
		if alternate {
			req.ThrottleClass = &classes[calls%2]
		}
		calls++
		if _, err := tn.Recommend(req); err != nil {
			t.Fatal(err)
		}
	}
	recommend() // warm the buffers
	recommend()
	before := tn.gprFitSeconds.Count()
	allocs = testing.AllocsPerRun(20, recommend)
	return allocs, tn.gprFitSeconds.Count() - before
}

// TestRecommendAllocsIndependentOfHistory: once warm, a recommendation
// that fits the GP allocates the same number of objects over 50 stored
// samples as over 400 — it reads the store through a view and reuses
// its buffers.
func TestRecommendAllocsIndependentOfHistory(t *testing.T) {
	allocs := func(history int) float64 {
		tn, req := warmRecommender(t, history)
		a, fits := recommendAllocs(t, tn, req, true)
		if fits != 21 { // AllocsPerRun's warm-up call plus 20
			t.Fatalf("%d of 21 calls fit the GP; every call must", fits)
		}
		return a
	}
	small, large := allocs(50), allocs(400)
	if small != large {
		t.Fatalf("Recommend allocates %.1f objects over 50 samples but %.1f over 400", small, large)
	}
}

// TestRecommendReusedFitAllocs: a Recommend that repeats the last
// request reuses its fit, fitting nothing, and allocates no more than
// one that fits.
func TestRecommendReusedFitAllocs(t *testing.T) {
	tn, req := warmRecommender(t, 400)
	full, _ := recommendAllocs(t, tn, req, true)
	reused, fits := recommendAllocs(t, tn, req, false)
	if fits != 0 {
		t.Fatalf("%d repeated requests fit the GP; none should", fits)
	}
	if reused > full {
		t.Fatalf("a reused fit allocates %.1f objects, a full one %.1f", reused, full)
	}
}
