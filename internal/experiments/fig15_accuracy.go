package experiments

import (
	"fmt"
	"time"

	"autodbaas/internal/knobs"
	"autodbaas/internal/simdb"
	"autodbaas/internal/tde"
	"autodbaas/internal/tuner/bo"
	"autodbaas/internal/workload"
)

// Fig15Result holds the throttle-accuracy measurement.
type Fig15Result struct {
	// Accuracy per throttle class: the fraction of throttles whose class
	// agrees with the classes of the tuner's top-ranked knobs.
	Accuracy map[knobs.Class]float64
	// Throttles counts the throttles evaluated per class.
	Throttles map[knobs.Class]int
}

// Fig15Accuracy reproduces Fig. 15: the accuracy of the TDE's throttles,
// judged against an OtterTune instance trained offline on TPCC, YCSB,
// Wikipedia and Twitter with exploration minimized. A throttle counts as
// accurate when at least `agree` of the tuner's top-5 ranked knobs (for
// the throttling workload) belong to the throttle's class — the paper's
// majority-vote criterion.
//
// Paper shape: high accuracy for memory and background-writer knobs and
// lower accuracy for planner/async knobs, which the paper attributes to
// OtterTune's metric set lacking planner estimates (our reproduction
// keeps the ranking objective throughput-based, which likewise
// undercredits planner knobs whose benefit shows in query cost rather
// than raw throughput).
func Fig15Accuracy(samplesPerWorkload, ticks, agree int, seed int64) Fig15Result {
	if agree <= 0 {
		agree = 2
	}
	gens := []workload.Generator{
		workload.NewTPCC(22*workload.GiB, 3300),
		workload.NewYCSB(18*workload.GiB, 5000),
		workload.NewWikipedia(20*workload.GiB, 1000),
		workload.NewTwitter(16*workload.GiB, 10000),
	}
	// Low UCB beta: the paper sets hyper-parameters so recommendations
	// "least explore and only aim to maximize the throughput".
	bt, err := bo.New(bo.Options{Engine: knobs.Postgres, UCBBeta: 0.05, Candidates: 200, MaxSamplesPerFit: 200, Seed: seed})
	if err != nil {
		panic(fmt.Sprintf("fig15: %v", err))
	}
	repo := subscribe(bt)
	bootstrapOffline(repo, seed, samplesPerWorkload, gens...)

	res := Fig15Result{
		Accuracy:  map[knobs.Class]float64{},
		Throttles: map[knobs.Class]int{},
	}
	accurate := map[knobs.Class]int{}
	kcat := knobs.PostgresCatalog()
	for gi, gen := range gens {
		// Rank knobs from the repository's samples of this workload.
		ranked, rerr := bt.RankKnobs(repo.Store().Samples("offline/" + gen.Name()))
		if rerr != nil {
			panic(fmt.Sprintf("fig15: rank: %v", rerr))
		}
		top5 := ranked
		if len(top5) > 5 {
			top5 = top5[:5]
		}
		classVotes := map[knobs.Class]int{}
		for _, name := range top5 {
			classVotes[kcat.Def(name).Class]++
		}
		topClass := kcat.Def(top5[0]).Class
		// Run the TDE on the same workload (m4.xlarge, as the paper) and
		// judge every throttle against the ranking votes.
		eng, eerr := simdb.NewEngine(simdb.Options{
			Engine:      knobs.Postgres,
			Resources:   simdb.Resources{MemoryBytes: 16 * workload.GiB, VCPU: 4, DiskIOPS: 6000, DiskSSD: true},
			DBSizeBytes: gen.DBSizeBytes(),
			Seed:        seed + int64(gi),
		})
		if eerr != nil {
			panic(fmt.Sprintf("fig15: %v", eerr))
		}
		tcfg := tde.DefaultConfig()
		tcfg.Seed = seed + int64(gi)
		td, terr := tde.New(eng, tcfg, nil)
		if terr != nil {
			panic(fmt.Sprintf("fig15: %v", terr))
		}
		for w := 0; w < ticks; w++ {
			if _, err := eng.RunWindow(gen, 5*time.Minute); err != nil {
				panic(fmt.Sprintf("fig15: %v", err))
			}
			for _, ev := range td.Tick() {
				if ev.Kind != tde.KindThrottle {
					continue
				}
				res.Throttles[ev.Class]++
				// Accurate when the ranking agrees: either `agree` of
				// the top-5 knobs share the throttle's class, or the
				// single top-ranked knob does (a class with one
				// load-bearing knob can never reach two votes).
				if classVotes[ev.Class] >= agree || topClass == ev.Class {
					accurate[ev.Class]++
				}
			}
		}
	}
	for cls, n := range res.Throttles {
		if n > 0 {
			res.Accuracy[cls] = float64(accurate[cls]) / float64(n)
		}
	}
	return res
}

// Render renders the accuracy bars.
func (r Fig15Result) Render() string {
	t := Table{
		Title:   "Fig. 15 — Accuracy of performance throttles (PostgreSQL)",
		Columns: []string{"knob class", "throttles", "accuracy"},
	}
	for _, cls := range knobs.Classes() {
		t.Rows = append(t.Rows, []string{
			cls.String(),
			fmt.Sprintf("%d", r.Throttles[cls]),
			fmt.Sprintf("%.2f", r.Accuracy[cls]),
		})
	}
	return t.Render()
}
