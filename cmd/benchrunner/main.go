// Command benchrunner regenerates every table and figure of the
// AutoDBaaS paper's evaluation and writes the results as plain-text /
// TSV artifacts (one file per figure) into an output directory. Its
// scenarios and tuner jobs also gate against committed baselines
// (comparators in internal/benchgate). It measures no performance:
// that is `go run ./bench`.
//
// Usage:
//
//	benchrunner [-out results/] [-quick] [-only fig5,fig9]
//
// -quick runs scaled-down configurations (for smoke testing); the
// default runs the paper-sized setups, including the 80-database fleet
// of Fig. 9.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"autodbaas/internal/experiments"
	"autodbaas/internal/knobs"
	"autodbaas/internal/obs"
)

func main() {
	out := flag.String("out", "results", "output directory")
	quick := flag.Bool("quick", false, "run scaled-down configurations")
	only := flag.String("only", "", "comma-separated subset (e.g. fig5,fig9,table1)")
	seed := flag.Int64("seed", 1, "base PRNG seed")
	parallelism := flag.Int("parallelism", 0, "fleet-step parallelism for fleet experiments (0: GOMAXPROCS); results are identical at every level")
	metricsOut := flag.String("metrics-out", "", "if set, dump the metrics registry per experiment (<dir>/<key>.prom)")
	faultsProfile := flag.String("faults", "medium", "fault profile for the chaos job (zero|light|medium|heavy)")
	scenarioBaseline := flag.String("scenario-baseline", "", "gate the scenarios job's per-scenario throttle counts against this committed BENCH_scenarios.json")
	tunerBaseline := flag.String("tuner-baseline", "", "gate the tuner job's sparse-path latency growth against this committed BENCH_tuner.json")
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "benchrunner: %v\n", err)
		os.Exit(1)
	}
	if *metricsOut != "" {
		if err := os.MkdirAll(*metricsOut, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: %v\n", err)
			os.Exit(1)
		}
	}
	want := map[string]bool{}
	for _, k := range strings.Split(*only, ",") {
		if k = strings.TrimSpace(k); k != "" {
			want[k] = true
		}
	}
	selected := func(k string) bool { return len(want) == 0 || want[k] }

	type job struct {
		key  string
		file string
		run  func() string
	}
	q := *quick
	scale := func(full, quick int) int {
		if q {
			return quick
		}
		return full
	}
	jobs := []job{
		{"fig2", "fig02_memory_stats.txt", func() string { return experiments.Fig2MemoryStats(*seed).Render() }},
		{"fig3", "fig03_entropy_p80.tsv", func() string { return experiments.Fig3Entropy(0.8, scale(40, 10), scale(1500, 300), *seed).Render() }},
		{"fig4", "fig04_entropy_p50.tsv", func() string { return experiments.Fig3Entropy(0.5, scale(40, 10), scale(1500, 300), *seed).Render() }},
		{"fig5", "fig05_disk_latency.tsv", func() string { return experiments.Fig5DiskLatency(scale(20, 6), *seed).Render() }},
		{"fig6", "fig06_mdp_learning.tsv", func() string { return experiments.Fig6MDPLearning(scale(24, 6), scale(375, 100), *seed).Render() }},
		{"fig7", "fig07_reload_jitter.tsv", func() string { return experiments.Fig7ReloadJitter(scale(15, 3), *seed).Render() }},
		{"fig8", "fig08_arrival_rate.tsv", func() string { return experiments.Fig8ArrivalRate(10).Render() }},
		{"fig9", "fig09_request_rate.tsv", func() string {
			return experiments.Fig9RequestRateParallel(scale(80, 8), scale(24, 6), *parallelism, *seed).Render()
		}},
		{"fig10", "fig10_throttles_postgres.txt", func() string { return experiments.Fig10Throttles(knobs.Postgres, scale(22, 4), *seed).Render() }},
		{"fig11", "fig11_throttles_mysql.txt", func() string { return experiments.Fig10Throttles(knobs.MySQL, scale(22, 4), *seed).Render() }},
		{"fig12", "fig12_throughput_bo.tsv", func() string {
			pg := experiments.Fig12ThroughputBO(knobs.Postgres, scale(12, 4), scale(8, 3), scale(24, 8), *seed).Render()
			my := experiments.Fig12ThroughputBO(knobs.MySQL, scale(12, 4), scale(8, 3), scale(24, 8), *seed).Render()
			return pg + "\n" + my
		}},
		{"fig13", "fig13_throughput_rl.tsv", func() string {
			pg := experiments.Fig13ThroughputRL(knobs.Postgres, scale(6, 2), scale(4, 2), scale(24, 8), *seed).Render()
			my := experiments.Fig13ThroughputRL(knobs.MySQL, scale(6, 2), scale(4, 2), scale(24, 8), *seed).Render()
			return pg + "\n" + my
		}},
		{"table1", "table1_scenarios.txt", experiments.Table1Render},
		{"fig14", "fig14_workload_shift.txt", func() string { return experiments.Fig14WorkloadShift(scale(8, 4), *seed).Render() }},
		{"fig15", "fig15_throttle_accuracy.txt", func() string {
			return experiments.Fig15Accuracy(scale(20, 8), scale(8, 4), 2, *seed).Render()
		}},
		{"chaos", "chaos_soak.txt", func() string {
			return experiments.ChaosSoak(scale(20, 6), scale(24, 4), *parallelism, *seed, *faultsProfile).Render()
		}},
		{"tuner", "BENCH_tuner.json", func() string { return runTuner(q, *seed, *tunerBaseline) }},
		{"scenarios", "BENCH_scenarios.json", func() string { return runScenarios(*out, *scenarioBaseline) }},
		{"ablations", "ablations.txt", func() string {
			out := experiments.AblationEntropyFilter([]int{2, 4, 8, 16, 64}, scale(30, 10), *seed).Render()
			out += "\n" + experiments.AblationWorkloadMapping(*seed).Render()
			out += "\n" + experiments.AblationSplitDisks(scale(15, 5), *seed).Render()
			return out
		}},
	}

	for _, j := range jobs {
		if !selected(j.key) {
			continue
		}
		start := time.Now()
		fmt.Printf("running %-7s → %s\n", j.key, j.file)
		if *metricsOut != "" {
			// Fresh registry per experiment: components constructed by the
			// job re-register their families from zero.
			obs.Default().Reset()
		}
		text := j.run()
		path := filepath.Join(*out, j.file)
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: write %s: %v\n", path, err)
			os.Exit(1)
		}
		if *metricsOut != "" {
			if err := dumpMetrics(filepath.Join(*metricsOut, j.key+".prom")); err != nil {
				fmt.Fprintf(os.Stderr, "benchrunner: metrics %s: %v\n", j.key, err)
				os.Exit(1)
			}
		}
		fmt.Printf("  done in %v\n", time.Since(start).Round(time.Millisecond))
	}
	fmt.Printf("artifacts written to %s\n", *out)
}

// dumpMetrics writes the default registry in Prometheus text format.
func dumpMetrics(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.Default().WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
