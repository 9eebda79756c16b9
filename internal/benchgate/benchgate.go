// Package benchgate holds the comparators behind benchrunner's two
// committed-baseline gates: the exact-count scenario throttle gate
// (BENCH_scenarios.json) and the sparse-GP latency growth ratio gate
// (BENCH_tuner.json). They are pure functions — baseline and fresh
// rows in, violations out — so the thresholds are testable without
// running a sweep. Wall-clock performance is not gated here; that is
// `go run ./bench` (see bench/README.md).
package benchgate

import "fmt"

// ScenarioRow is one library scenario's summary in
// BENCH_scenarios.json.
type ScenarioRow struct {
	Name           string  `json:"name"`
	Seed           int64   `json:"seed"`
	Windows        int     `json:"windows"`
	Throttles      int     `json:"throttles"`
	SLOViolations  int     `json:"slo_violations"`
	Retries        int     `json:"retries"`
	Escalations    int     `json:"escalations"`
	Provisions     int     `json:"provisions"`
	Deprovisions   int     `json:"deprovisions"`
	Resizes        int     `json:"resizes"`
	PeakInstances  int     `json:"peak_instances"`
	MeanProvLatWin float64 `json:"mean_provision_latency_windows"`
	Fingerprint    string  `json:"fingerprint"`

	// Safe-tuning gate totals; only the +safe row populates them, so
	// every ungated row stays byte-identical to its pre-gate baseline.
	SafetyVetoes     int `json:"safety_vetoes,omitempty"`
	SafetyCanaryRuns int `json:"safety_canary_runs,omitempty"`
	SafetyRollbacks  int `json:"safety_rollbacks,omitempty"`
	SafetyRegressing int `json:"safety_regressing_applies,omitempty"`
}

// WarmColdScenario is replayed twice — cold (library default) and, as
// the WarmRowSuffix row, with fleet warm starts on — so the throttle gap
// between the two rows pins the warm-start win in the committed
// baseline.
const (
	WarmColdScenario = "cold-start-wave"
	WarmRowSuffix    = "+warm"
)

// SafetyScenario is replayed twice — ungated (library default) and, as
// the SafetyRowSuffix row, with the safe-tuning gate armed — so the
// committed baseline pins both the gate's zero-regression guarantee and
// its throttle cost.
const (
	SafetyScenario  = "tuning-regression"
	SafetyRowSuffix = "+safe"
)

// Scenarios compares a fresh library sweep against the committed
// baseline. Any throttle increase is a violation; decreases pass and
// come back as notes (ratcheting down requires a deliberate baseline
// update). Scenarios missing from the baseline fail too — new scenarios
// must land with their baseline entry.
func Scenarios(baseline, fresh []ScenarioRow) (violations, notes []string) {
	baseBy := make(map[string]ScenarioRow, len(baseline))
	for _, r := range baseline {
		baseBy[r.Name] = r
	}
	freshBy := make(map[string]ScenarioRow, len(fresh))
	for _, r := range fresh {
		freshBy[r.Name] = r
		b, ok := baseBy[r.Name]
		if !ok {
			violations = append(violations, fmt.Sprintf("%s: not in baseline (add it via the update flow)", r.Name))
			continue
		}
		switch {
		case r.Throttles > b.Throttles:
			violations = append(violations, fmt.Sprintf("%s: throttles %d → %d (+%d)", r.Name, b.Throttles, r.Throttles, r.Throttles-b.Throttles))
		case r.Throttles < b.Throttles:
			notes = append(notes, fmt.Sprintf("%s improved, throttles %d → %d (baseline can be ratcheted down)", r.Name, b.Throttles, r.Throttles))
		}
	}
	// Warm-start efficacy: the warm replay of the cold-start wave must
	// throttle strictly less than the cold replay, or the warm-start
	// path has stopped helping.
	if cold, ok := freshBy[WarmColdScenario]; ok {
		if warm, ok := freshBy[WarmColdScenario+WarmRowSuffix]; ok && warm.Throttles >= cold.Throttles {
			violations = append(violations, fmt.Sprintf("%s: warm replay throttled %d, not strictly below the cold replay's %d — warm starts no longer pay off", warm.Name, warm.Throttles, cold.Throttles))
		}
	}
	// Safety efficacy: the gated replay of the tuning-regression
	// campaign must be engaged (canaries ran) and must report zero
	// regressing applies. Its throttle count is ratcheted by the
	// per-row baseline above like any other scenario; the twin check
	// here only catches the pathological case of the gate vetoing so
	// much that protection overhead becomes runaway (>50% + slack over
	// the ungated twin).
	if ungated, ok := freshBy[SafetyScenario]; ok {
		if safe, ok := freshBy[SafetyScenario+SafetyRowSuffix]; ok {
			if safe.SafetyCanaryRuns == 0 {
				violations = append(violations, fmt.Sprintf("%s: the gate never ran a canary — not engaged", safe.Name))
			}
			if safe.SafetyRegressing != 0 {
				violations = append(violations, fmt.Sprintf("%s: safety_regressing_applies = %d, want 0 — an admitted config regressed a live instance", safe.Name, safe.SafetyRegressing))
			}
			if limit := ungated.Throttles*3/2 + 5; safe.Throttles > limit {
				violations = append(violations, fmt.Sprintf("%s: gated replay throttled %d, above %d (ungated %d + 50%% + 5) — the gate is vetoing good configs wholesale", safe.Name, safe.Throttles, limit, ungated.Throttles))
			}
		}
	}
	return violations, notes
}

// TunerGrowth is the sparse path's scaling contract as BENCH_tuner.json
// records it: recommendation latency at ToN over that at FromN.
type TunerGrowth struct {
	FromN         int     `json:"from_n"`
	ToN           int     `json:"to_n"`
	HistoryGrowth float64 `json:"history_growth"`
	RecRatio      float64 `json:"rec_latency_ratio"`
	MaxRatio      float64 `json:"max_ratio"`
}

// baselineGrowthSlack is the factor by which a fresh sparse growth
// ratio may exceed the committed one. A ratio of two latencies taken
// in the same process cancels host speed, but not all of its noise.
const baselineGrowthSlack = 1.5

// SparseGrowth checks a fresh sparse growth ratio against its own
// absolute contract (MaxRatio) and, when a committed baseline is given,
// against baseline × baselineGrowthSlack.
func SparseGrowth(baseline *TunerGrowth, fresh TunerGrowth) []string {
	var violations []string
	if fresh.RecRatio > fresh.MaxRatio {
		violations = append(violations, fmt.Sprintf("sparse rec latency grew %.2f× from n=%d to n=%d (history %.0f×); contract is ≤%.1f×",
			fresh.RecRatio, fresh.FromN, fresh.ToN, fresh.HistoryGrowth, fresh.MaxRatio))
	}
	if baseline != nil && baseline.RecRatio > 0 && fresh.RecRatio > baseline.RecRatio*baselineGrowthSlack {
		violations = append(violations, fmt.Sprintf("sparse rec growth ratio %.2f exceeds committed %.2f by more than %.1fx — sparse path regressed",
			fresh.RecRatio, baseline.RecRatio, baselineGrowthSlack))
	}
	return violations
}
