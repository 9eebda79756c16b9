package benchgate

import (
	"strings"
	"testing"
)

func row(name string, throttles int) ScenarioRow {
	return ScenarioRow{Name: name, Throttles: throttles}
}

func safeRow(throttles, canaryRuns, regressing int) ScenarioRow {
	return ScenarioRow{
		Name:             SafetyScenario + SafetyRowSuffix,
		Throttles:        throttles,
		SafetyCanaryRuns: canaryRuns,
		SafetyRegressing: regressing,
	}
}

func TestScenarios(t *testing.T) {
	warm := WarmColdScenario + WarmRowSuffix
	safe := SafetyScenario + SafetyRowSuffix
	for _, tc := range []struct {
		name            string
		baseline, fresh []ScenarioRow
		// want holds one substring per expected violation, in order.
		want      []string
		wantNotes int
	}{
		{
			name:     "equal counts pass",
			baseline: []ScenarioRow{row("diurnal", 40)},
			fresh:    []ScenarioRow{row("diurnal", 40)},
		},
		{
			name:     "throttle increase fails and names the scenario",
			baseline: []ScenarioRow{row("diurnal", 40), row("batch-window", 200)},
			fresh:    []ScenarioRow{row("diurnal", 41), row("batch-window", 200)},
			want:     []string{"diurnal: throttles 40 → 41 (+1)"},
		},
		{
			name:      "decrease passes with a note",
			baseline:  []ScenarioRow{row("diurnal", 40)},
			fresh:     []ScenarioRow{row("diurnal", 39)},
			wantNotes: 1,
		},
		{
			name:     "scenario missing from the baseline fails",
			baseline: []ScenarioRow{row("diurnal", 40)},
			fresh:    []ScenarioRow{row("diurnal", 40), row("brand-new", 0)},
			want:     []string{"brand-new: not in baseline"},
		},
		{
			name:     "baseline row absent from the sweep is not the gate's business",
			baseline: []ScenarioRow{row("diurnal", 40), row("retired", 7)},
			fresh:    []ScenarioRow{row("diurnal", 40)},
		},
		{
			name:     "warm strictly below cold passes",
			baseline: []ScenarioRow{row(WarmColdScenario, 30), row(warm, 25)},
			fresh:    []ScenarioRow{row(WarmColdScenario, 30), row(warm, 25)},
		},
		{
			name:     "warm equal to cold fails",
			baseline: []ScenarioRow{row(WarmColdScenario, 30), row(warm, 30)},
			fresh:    []ScenarioRow{row(WarmColdScenario, 30), row(warm, 30)},
			want:     []string{warm + ": warm replay throttled 30, not strictly below the cold replay's 30"},
		},
		{
			name:     "warm above cold fails even when both ratchet down",
			baseline: []ScenarioRow{row(WarmColdScenario, 30), row(warm, 25)},
			fresh:    []ScenarioRow{row(WarmColdScenario, 20), row(warm, 21)},
			want:     []string{warm + ": warm replay throttled 21"},
			// cold and warm both improved on their own rows.
			wantNotes: 2,
		},
		{
			name:     "gated twin engaged, clean and within the limit passes",
			baseline: []ScenarioRow{row(SafetyScenario, 30), safeRow(50, 12, 0)},
			fresh:    []ScenarioRow{row(SafetyScenario, 30), safeRow(50, 12, 0)}, // limit 30*3/2+5 = 50
		},
		{
			name:     "gated twin with zero canary runs fails",
			baseline: []ScenarioRow{row(SafetyScenario, 30), safeRow(35, 12, 0)},
			fresh:    []ScenarioRow{row(SafetyScenario, 30), safeRow(35, 0, 0)},
			want:     []string{safe + ": the gate never ran a canary"},
		},
		{
			name:     "gated twin with regressing applies fails",
			baseline: []ScenarioRow{row(SafetyScenario, 30), safeRow(35, 12, 0)},
			fresh:    []ScenarioRow{row(SafetyScenario, 30), safeRow(35, 12, 2)},
			want:     []string{safe + ": safety_regressing_applies = 2, want 0"},
		},
		{
			name:     "gated twin above ungated×3/2+5 fails",
			baseline: []ScenarioRow{row(SafetyScenario, 30), safeRow(51, 12, 0)},
			fresh:    []ScenarioRow{row(SafetyScenario, 30), safeRow(51, 12, 0)},
			want:     []string{safe + ": gated replay throttled 51, above 50 (ungated 30"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, notes := Scenarios(tc.baseline, tc.fresh)
			checkViolations(t, got, tc.want)
			if len(notes) != tc.wantNotes {
				t.Errorf("notes = %q, want %d", notes, tc.wantNotes)
			}
		})
	}
}

func TestSparseGrowth(t *testing.T) {
	fresh := func(ratio float64) TunerGrowth {
		return TunerGrowth{FromN: 1000, ToN: 16000, HistoryGrowth: 16, RecRatio: ratio, MaxRatio: 2}
	}
	for _, tc := range []struct {
		name     string
		baseline *TunerGrowth
		fresh    TunerGrowth
		want     []string
	}{
		{name: "within the contract, no baseline", fresh: fresh(1.9)},
		{name: "above max_ratio fails", fresh: fresh(2.1), want: []string{"grew 2.10× from n=1000 to n=16000"}},
		{name: "within baseline × slack passes", baseline: &TunerGrowth{RecRatio: 1.2}, fresh: fresh(1.79)},
		{
			name:     "above baseline × slack fails",
			baseline: &TunerGrowth{RecRatio: 1.2},
			fresh:    fresh(1.81),
			want:     []string{"ratio 1.81 exceeds committed 1.20 by more than 1.5x"},
		},
		{
			name:     "both contracts broken reports both",
			baseline: &TunerGrowth{RecRatio: 1.2},
			fresh:    fresh(2.5),
			want:     []string{"contract is ≤2.0×", "exceeds committed 1.20"},
		},
		{name: "baseline without a ratio is ignored", baseline: &TunerGrowth{}, fresh: fresh(1.9)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkViolations(t, SparseGrowth(tc.baseline, tc.fresh), tc.want)
		})
	}
}

func checkViolations(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("violations = %q, want %d matching %q", got, len(want), want)
	}
	for i, w := range want {
		if !strings.Contains(got[i], w) {
			t.Errorf("violation %d = %q, want it to contain %q", i, got[i], w)
		}
	}
}
