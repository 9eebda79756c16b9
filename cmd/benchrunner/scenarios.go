package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"autodbaas/internal/benchgate"
	"autodbaas/internal/scenario"
	"autodbaas/scenarios"
)

// scenarioBench is BENCH_scenarios.json — the regression baseline CI
// diffs against.
type scenarioBench struct {
	Note      string                  `json:"note"`
	Scenarios []benchgate.ScenarioRow `json:"scenarios"`
}

// scenarioParallelism pins the layout the sweep runs at. The timeline
// is identical at every parallelism (the determinism suite holds that
// contract), so this only affects wall time.
const scenarioParallelism = 4

// runScenarioSweep replays every library scenario flat, writes one
// timeline CSV per scenario into outDir, and returns the
// BENCH_scenarios.json text. Scenario seeds come from the files — the
// benchrunner -seed flag deliberately does not reach them, so the
// sweep is comparable across invocations.
func runScenarioSweep(outDir string) (string, *scenarioBench, error) {
	bench := &scenarioBench{
		Note: "per-scenario totals from the library sweep; throttles are gated in CI against the committed baseline (see DESIGN.md \"Scenario DSL\"); the +warm row replays the same file with fleet warm starts on and must throttle strictly less than its cold twin; the +safe row replays with the safe-tuning gate armed and must report zero regressing applies without throttling more than its ungated twin",
	}
	runOne := func(name, rowName string, cfg scenario.RunConfig) error {
		src, err := scenarios.Source(name)
		if err != nil {
			return err
		}
		sc, err := scenario.Parse(src)
		if err != nil {
			return fmt.Errorf("%s: %w", rowName, err)
		}
		plan, err := sc.Compile()
		if err != nil {
			return fmt.Errorf("%s: %w", rowName, err)
		}
		r, err := scenario.NewRunner(plan, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", rowName, err)
		}
		res, err := r.Run(context.Background())
		r.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", rowName, err)
		}

		csvPath := filepath.Join(outDir, "scenario_"+rowName+".csv")
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		if err := res.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}

		bench.Scenarios = append(bench.Scenarios, benchgate.ScenarioRow{
			Name:             rowName,
			Seed:             res.Seed,
			Windows:          res.Windows,
			Throttles:        res.Throttles,
			SLOViolations:    res.SLOViolations,
			Retries:          res.Retries,
			Escalations:      res.Escalations,
			Provisions:       res.Provisions,
			Deprovisions:     res.Deprovisions,
			Resizes:          res.Resizes,
			PeakInstances:    res.PeakInstances,
			MeanProvLatWin:   res.MeanProvisionLatency(),
			Fingerprint:      res.Fingerprint,
			SafetyVetoes:     res.SafetyVetoes,
			SafetyCanaryRuns: res.SafetyCanaryRuns,
			SafetyRollbacks:  res.SafetyRollbacks,
			SafetyRegressing: res.SafetyRegressing,
		})
		fmt.Printf("  %-20s throttles=%-4d slo=%-4d → %s\n", rowName, res.Throttles, res.SLOViolations, csvPath)
		return nil
	}
	for _, name := range scenarios.Names() {
		if err := runOne(name, name, scenario.RunConfig{Parallelism: scenarioParallelism}); err != nil {
			return "", nil, err
		}
		if name == benchgate.WarmColdScenario {
			if err := runOne(name, name+benchgate.WarmRowSuffix, scenario.RunConfig{Parallelism: scenarioParallelism, WarmStart: true}); err != nil {
				return "", nil, err
			}
		}
		if name == benchgate.SafetyScenario {
			if err := runOne(name, name+benchgate.SafetyRowSuffix, scenario.RunConfig{Parallelism: scenarioParallelism, Safety: true}); err != nil {
				return "", nil, err
			}
		}
	}
	sort.Slice(bench.Scenarios, func(i, j int) bool { return bench.Scenarios[i].Name < bench.Scenarios[j].Name })
	b, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		return "", nil, err
	}
	return string(b) + "\n", bench, nil
}

// runScenarios is the benchrunner job body: sweep the library and, if
// a baseline is given, gate it with benchgate.Scenarios. A violation
// writes the fresh results next to the CSVs and exits non-zero so CI
// fails with the update path in hand.
func runScenarios(outDir, baselinePath string) string {
	text, bench, err := runScenarioSweep(outDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchrunner: scenarios: %v\n", err)
		os.Exit(1)
	}
	if baselinePath == "" {
		return text
	}
	var base scenarioBench
	if err := readJSON(baselinePath, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchrunner: scenarios: baseline: %v\n", err)
		os.Exit(1)
	}
	violations, notes := benchgate.Scenarios(base.Scenarios, bench.Scenarios)
	for _, n := range notes {
		fmt.Printf("  note: %s\n", n)
	}
	if len(violations) > 0 {
		// Persist the fresh sweep so updating the baseline after an
		// accepted regression is one copy, then fail the job.
		fresh := filepath.Join(outDir, "BENCH_scenarios.json")
		_ = os.WriteFile(fresh, []byte(text), 0o644)
		fmt.Fprintf(os.Stderr, "\nthrottle regression gate FAILED against %s:\n", baselinePath)
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "  %s\n", v)
		}
		fmt.Fprintf(os.Stderr, "\nif the increase is intended, update the baseline:\n  cp %s BENCH_scenarios.json\nand justify it in the PR (see DESIGN.md \"Scenario DSL\" → throttle gate)\n", fresh)
		os.Exit(1)
	}
	fmt.Printf("  throttle gate OK against %s (%d scenarios)\n", baselinePath, len(bench.Scenarios))
	return text
}

// readJSON decodes one committed baseline file.
func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	return nil
}
