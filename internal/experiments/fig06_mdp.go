package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"autodbaas/internal/knobs"
	"autodbaas/internal/mdp"
	"autodbaas/internal/obs"
	"autodbaas/internal/simdb"
	"autodbaas/internal/workload"
)

// Fig6Result holds the RL learning curves of Fig. 6.
type Fig6Result struct {
	// Reward is the episodic total reward (Fig. 6a, "learning progress").
	Reward Series
	// Accuracy is the per-episode fraction of profitable actions
	// (Fig. 6b, "average accuracy of learning process").
	Accuracy Series
}

// fig6LogSize is how many of the newest logged statements the episodes
// draw their pool from; the engine's ring is sized to hold them.
const fig6LogSize = 2048

// Fig6MDPLearning reproduces Fig. 6: the learning-automata MDP of the
// async/planner detector running against the production workload, with
// episodes of ~350–400 steps perturbing planner knobs and collecting
// planner cost/benefit responses.
//
// Paper shape: early episodes show little learning (exploration); as
// iterations continue the episodic reward and accuracy increase —
// "this draws a balance between exploration and exploitation".
func Fig6MDPLearning(episodes, stepsPerEpisode int, seed int64) Fig6Result {
	if stepsPerEpisode <= 0 {
		stepsPerEpisode = 375
	}
	eng, err := simdb.NewEngine(simdb.Options{
		Engine:       knobs.Postgres,
		Resources:    simdb.Resources{MemoryBytes: 8 * workload.GiB, VCPU: 2, DiskIOPS: 3000, DiskSSD: true},
		DBSizeBytes:  workload.ProductionDBSize,
		Seed:         seed,
		QueryLogSize: fig6LogSize,
	})
	if err != nil {
		panic(fmt.Sprintf("fig6: %v", err))
	}
	// Hostile planner estimates leave room for the MDP to learn; the
	// prefetch depth starts at its maximum so the automaton has a long
	// descent to the device's real parallelism.
	hostile := knobs.Config{
		"random_page_cost":         9.5,
		"seq_page_cost":            3.5,
		"effective_io_concurrency": 512,
		"cpu_tuple_cost":           0.9,
	}
	if err := eng.ApplyConfig(hostile, simdb.ApplyReload); err != nil {
		panic(fmt.Sprintf("fig6: %v", err))
	}
	gen := workload.NewProduction()
	// Capture a long stretch of the production day (the paper's "queries
	// in a time frame, typically a day or two"): enough windows for the
	// working-set estimate to settle and for the rare analytic queries —
	// the ones planner knobs act on — to appear in the log.
	for i := 0; i < 30; i++ {
		if _, err := eng.RunWindow(gen, 5*time.Minute); err != nil {
			panic(fmt.Sprintf("fig6: %v", err))
		}
	}
	pool := simdb.TemplateIDs(eng.QueryLog(fig6LogSize))
	obs.Debugf("fig6: captured %d queries; running %d episodes × %d steps", len(pool), episodes, stepsPerEpisode)

	kcat := eng.KnobCatalog()
	var automata []*mdp.Automaton
	cfg := eng.Config()
	for _, name := range kcat.NamesByClass(knobs.AsyncPlanner) {
		def := kcat.Def(name)
		if def.Restart {
			continue
		}
		a, err := mdp.NewAutomaton(name, cfg[name], (def.Max-def.Min)*0.02, def.Min, def.Max)
		if err != nil {
			panic(fmt.Sprintf("fig6: %v", err))
		}
		// A conservative reward-penalty rate spreads convergence over
		// several episodes (the paper's visible exploration phase).
		a.LearnRate = 0.03
		automata = append(automata, a)
	}
	// Environment: profit of a candidate knob value against the live
	// overlay built from all automata's current values.
	overlay := func() knobs.Config {
		o := knobs.Config{}
		for _, a := range automata {
			o[a.Knob] = a.Value()
		}
		return o
	}
	rng := rand.New(rand.NewSource(seed))
	// The feedback signal prices a fresh small sample of the captured
	// queries per probe, carrying the sampling noise a live TDE sees —
	// which is what keeps early episodes exploratory. Accuracy is judged
	// against the noiseless full-pool profit (the true gradient).
	// The full pool: production is insert-dominated, so the read-heavy
	// queries the planner knobs act on are rare — a small subsample can
	// miss them entirely and report a flat (zero-gradient) landscape.
	truth := pool
	profitOn := func(ids []string, knob string, cand float64) float64 {
		base := overlay()
		cur, n := eng.HypotheticalRunTemplatesMs(base, ids)
		if n == 0 {
			return 0
		}
		base[knob] = cand
		alt, _ := eng.HypotheticalRunTemplatesMs(base, ids)
		return (cur - alt) / cur
	}
	noisyProfit := func(knob string, cand float64) float64 {
		ids := make([]string, 24)
		for i := range ids {
			ids[i] = pool[rng.Intn(len(pool))]
		}
		return profitOn(ids, knob, cand)
	}

	res := Fig6Result{Reward: Series{Name: "episodic-reward"}, Accuracy: Series{Name: "accuracy"}}
	// Episode starts reset the knob positions to the initial (mis-set)
	// values while keeping the learned action probabilities — the
	// standard episodic-RL protocol: the agent re-walks the same terrain
	// with an increasingly informed policy, so episodic reward and
	// accuracy rise as exploration gives way to exploitation.
	initial := make([]float64, len(automata))
	for i, a := range automata {
		initial[i] = a.Value()
	}
	const gradientEps = 1e-4
	for e := 0; e < episodes; e++ {
		for i, a := range automata {
			if err := a.SetValue(initial[i]); err != nil {
				panic(fmt.Sprintf("fig6: %v", err))
			}
		}
		var reward float64
		var gradientSteps, correctSteps int
		for s := 0; s < stepsPerEpisode; s++ {
			a := automata[s%len(automata)]
			act := a.Choose(rng)
			cand := a.Candidate(act)
			noisy := noisyProfit(a.Knob, cand)
			trueProfit := profitOn(truth, a.Knob, cand)
			if math.Abs(trueProfit) > gradientEps {
				gradientSteps++
				if trueProfit > 0 {
					correctSteps++
				}
			}
			reward += trueProfit
			a.Feedback(act, noisy > 0)
			if noisy > 0 {
				a.Commit(act)
			}
		}
		acc := 0.0
		if gradientSteps > 0 {
			acc = float64(correctSteps) / float64(gradientSteps)
		}
		res.Reward.Points = append(res.Reward.Points, Point{X: float64(e), Y: reward})
		res.Accuracy.Points = append(res.Accuracy.Points, Point{X: float64(e), Y: acc})
		obs.Debugf("fig6: episode %d/%d reward=%.3f accuracy=%.3f (gradient steps %d)", e+1, episodes, reward, acc, gradientSteps)
	}
	return res
}

// Render renders both curves.
func (r Fig6Result) Render() string {
	return RenderSeries("Fig. 6 — MDP learning progress and accuracy (production workload)", r.Reward, r.Accuracy)
}
