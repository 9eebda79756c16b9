package experiments

import (
	"fmt"
	"sort"
	"time"

	"autodbaas/internal/knobs"
	"autodbaas/internal/simdb"
	"autodbaas/internal/tde"
	"autodbaas/internal/tuner"
	"autodbaas/internal/tuner/bo"
	"autodbaas/internal/workload"
)

// ShiftScenario is one row of Table 1: a workload change with its
// observation-window length and the knob classes the paper reports
// throttling after the shift.
type ShiftScenario struct {
	ID              string
	From, To        string
	WindowMinutes   int
	ExpectedClasses []knobs.Class // "NA" in the paper → empty
}

// Table1Scenarios returns the six experimental scenarios of Table 1.
func Table1Scenarios() []ShiftScenario {
	return []ShiftScenario{
		{ID: "#1", From: "ycsb", To: "tpcc", WindowMinutes: 5, ExpectedClasses: []knobs.Class{knobs.BgWriter, knobs.AsyncPlanner}},
		{ID: "#2", From: "tpcc", To: "ycsb", WindowMinutes: 5, ExpectedClasses: []knobs.Class{knobs.Memory, knobs.AsyncPlanner}},
		{ID: "#3", From: "ycsb", To: "wikipedia", WindowMinutes: 7, ExpectedClasses: []knobs.Class{knobs.AsyncPlanner}},
		{ID: "#4", From: "wikipedia", To: "ycsb", WindowMinutes: 5, ExpectedClasses: nil},
		{ID: "#5", From: "tpcc", To: "twitter", WindowMinutes: 6, ExpectedClasses: []knobs.Class{knobs.Memory, knobs.AsyncPlanner}},
		{ID: "#6", From: "twitter", To: "tpcc", WindowMinutes: 5, ExpectedClasses: []knobs.Class{knobs.BgWriter}},
	}
}

// Table1Render renders Table 1.
func Table1Render() string {
	t := Table{
		Title:   "Table 1 — Experimental parameters and values",
		Columns: []string{"variable", "used workload", "metrics window", "knob classes"},
	}
	for _, s := range Table1Scenarios() {
		var classes string
		if len(s.ExpectedClasses) == 0 {
			classes = "NA"
		} else {
			parts := make([]string, len(s.ExpectedClasses))
			for i, c := range s.ExpectedClasses {
				parts[i] = c.String()
			}
			sort.Strings(parts)
			classes = parts[0]
			for _, p := range parts[1:] {
				classes += ", " + p
			}
		}
		t.Rows = append(t.Rows, []string{
			s.ID,
			fmt.Sprintf("%s to %s", s.From, s.To),
			fmt.Sprintf("%d min", s.WindowMinutes),
			classes,
		})
	}
	return t.Render()
}

// Fig14ScenarioResult is one scenario's outcome.
type Fig14ScenarioResult struct {
	Scenario ShiftScenario
	// ThrottlesBefore/After count throttles in the stable phase vs the
	// post-shift phase (same number of TDE ticks each).
	ThrottlesBefore int
	ThrottlesAfter  int
	// Classes observed after the shift.
	Classes map[knobs.Class]int
}

// Fig14Result is the full experiment.
type Fig14Result struct {
	Scenarios []Fig14ScenarioResult
}

// fig14Sizes are the paper's loaded dataset sizes for this experiment.
var fig14Sizes = map[string]float64{
	"tpcc":      22 * workload.GiB,
	"tpch":      24 * workload.GiB,
	"ycsb":      18.34 * workload.GiB,
	"twitter":   16 * workload.GiB,
	"wikipedia": 20.2 * workload.GiB,
}

func fig14Generator(name string) workload.Generator {
	size := fig14Sizes[name]
	switch name {
	case "tpcc":
		return workload.NewTPCC(size, 3300)
	case "tpch":
		return workload.NewTPCH(size, 2)
	case "ycsb":
		return workload.NewYCSB(size, 5000)
	case "twitter":
		return workload.NewTwitter(size, 10000)
	case "wikipedia":
		return workload.NewWikipedia(size, 1000)
	default:
		panic("fig14: unknown workload " + name)
	}
}

// Fig14WorkloadShift reproduces Fig. 14: throttles captured when the
// executing workload changes (Table 1 scenarios) on an m4.xlarge
// PostgreSQL, with an OtterTune-style tuner answering throttles.
//
// Paper shape: throttling detection "quickly captures workload change" —
// throttle counts spike in the windows right after each shift relative
// to the stable phase, with classes matching Table 1; the better the
// tuner's recommendation, the faster the counts decay ("an idealistic
// tuner ... should not trigger more than one throttle").
func Fig14WorkloadShift(ticksPerPhase int, seed int64) Fig14Result {
	if ticksPerPhase <= 0 {
		ticksPerPhase = 6
	}
	var out Fig14Result
	for _, sc := range Table1Scenarios() {
		out.Scenarios = append(out.Scenarios, fig14Run(sc, ticksPerPhase, seed))
	}
	return out
}

func fig14Run(sc ShiftScenario, ticksPerPhase int, seed int64) Fig14ScenarioResult {
	eng, err := simdb.NewEngine(simdb.Options{
		Engine:      knobs.Postgres,
		Resources:   simdb.Resources{MemoryBytes: 16 * workload.GiB, VCPU: 4, DiskIOPS: 6000, DiskSSD: true}, // m4.xlarge
		DBSizeBytes: fig14Sizes[sc.To],
		Seed:        seed,
	})
	if err != nil {
		panic(fmt.Sprintf("fig14: %v", err))
	}
	tcfg := tde.DefaultConfig()
	tcfg.Seed = seed
	td, err := tde.New(eng, tcfg, nil)
	if err != nil {
		panic(fmt.Sprintf("fig14: %v", err))
	}
	// OtterTune answering throttles, bootstrapped on random configs of
	// the destination workload family (offline training).
	bt, err := bo.New(bo.Options{Engine: knobs.Postgres, Candidates: 300, UCBBeta: 0.4, MaxSamplesPerFit: 120, Seed: seed})
	if err != nil {
		panic(fmt.Sprintf("fig14: %v", err))
	}
	repo := subscribe(bt)
	bootstrapOffline(repo, seed, 12, fig14Generator(sc.From), fig14Generator(sc.To))

	window := time.Duration(sc.WindowMinutes) * time.Minute
	runPhase := func(gen workload.Generator, ticks int) (int, map[knobs.Class]int) {
		total := 0
		classes := map[knobs.Class]int{}
		for i := 0; i < ticks; i++ {
			if _, err := eng.RunWindow(gen, window); err != nil {
				panic(fmt.Sprintf("fig14: %v", err))
			}
			for _, ev := range td.Tick() {
				if ev.Kind != tde.KindThrottle {
					continue
				}
				total++
				classes[ev.Class]++
				// The throttle triggers a tuning request; apply the
				// class-scoped recommendation.
				cls := ev.Class
				rec, rerr := bt.Recommend(tuner.Request{
					Engine: knobs.Postgres, WorkloadID: gen.Name(),
					Metrics: eng.Snapshot(), Current: eng.Config(),
					MemoryBytes:   eng.Resources().MemoryBytes,
					ThrottleClass: &cls,
				})
				if rerr == nil {
					_ = eng.ApplyConfig(rec.Config, simdb.ApplyReload)
				}
			}
		}
		return total, classes
	}
	before, _ := runPhase(fig14Generator(sc.From), ticksPerPhase)
	after, classes := runPhase(fig14Generator(sc.To), ticksPerPhase)
	return Fig14ScenarioResult{
		Scenario:        sc,
		ThrottlesBefore: before,
		ThrottlesAfter:  after,
		Classes:         classes,
	}
}

// Render renders the experiment.
func (r Fig14Result) Render() string {
	t := Table{
		Title:   "Fig. 14 — Throttles captured on workload change (tuner: OtterTune)",
		Columns: []string{"scenario", "shift", "throttles before", "throttles after", "classes after"},
	}
	for _, s := range r.Scenarios {
		var classes []string
		for cls, n := range s.Classes {
			classes = append(classes, fmt.Sprintf("%s:%d", cls, n))
		}
		sort.Strings(classes)
		t.Rows = append(t.Rows, []string{
			s.Scenario.ID,
			fmt.Sprintf("%s→%s", s.Scenario.From, s.Scenario.To),
			fmt.Sprintf("%d", s.ThrottlesBefore),
			fmt.Sprintf("%d", s.ThrottlesAfter),
			fmt.Sprintf("%v", classes),
		})
	}
	return t.Render()
}
