package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"autodbaas/scenarios"
)

// libraryRow is one replay's summary in testdata/library.json.
type libraryRow struct {
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

	// Safe-tuning gate totals; only the +safe row populates them.
	SafetyVetoes     int `json:"safety_vetoes,omitempty"`
	SafetyCanaryRuns int `json:"safety_canary_runs,omitempty"`
	SafetyRollbacks  int `json:"safety_rollbacks,omitempty"`
	SafetyRegressing int `json:"safety_regressing_applies,omitempty"`
}

const libraryNote = "per-scenario totals from the library sweep at parallelism 4; the +warm row replays cold-start-wave with fleet warm starts on, the +safe row replays tuning-regression with the safe-tuning gate armed; TestLibraryBaseline checks every field of every row exactly, so a change in either direction fails; regenerate with `go test ./internal/scenario -run TestLibraryBaseline -update` (see DESIGN.md \"Scenario DSL\")"

// TestLibraryBaseline replays every library scenario flat at P=4, plus
// a warm-start twin of cold-start-wave and a safety-gated twin of
// tuning-regression, and compares the rows byte for byte against
// testdata/library.json. Regenerate with:
//
//	go test ./internal/scenario -run TestLibraryBaseline -update
func TestLibraryBaseline(t *testing.T) {
	twins := map[string]struct {
		suffix string
		cfg    RunConfig
	}{
		"cold-start-wave":   {"+warm", RunConfig{Parallelism: 4, WarmStart: true}},
		"tuning-regression": {"+safe", RunConfig{Parallelism: 4, Safety: true}},
	}
	var rows []libraryRow
	replay := func(name, row string, cfg RunConfig) {
		plan, res := compileLibrary(t, name), runLibrary(t, name, cfg)
		// The compile-time preview is the replay's own outcome.
		if plan.PeakInstances != res.PeakInstances || plan.TotalProvisions != res.Provisions {
			t.Errorf("%s: compile preview peak %d / provisions %d, replay peak %d / provisions %d",
				row, plan.PeakInstances, plan.TotalProvisions, res.PeakInstances, res.Provisions)
		}
		rows = append(rows, summarize(row, res))
	}
	for _, name := range scenarios.Names() {
		replay(name, name, RunConfig{Parallelism: 4})
		if tw, ok := twins[name]; ok {
			replay(name, name+tw.suffix, tw.cfg)
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	got, err := json.MarshalIndent(struct {
		Note      string       `json:"note"`
		Scenarios []libraryRow `json:"scenarios"`
	}{libraryNote, rows}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "library.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if !bytes.Equal(got, want) {
		g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		row := "<none>"
		for j := min(i, len(g)-1); j >= 0; j-- {
			if name, ok := strings.CutPrefix(strings.TrimSpace(g[j]), `"name": `); ok {
				row = strings.TrimSuffix(name, ",")
				break
			}
		}
		t.Errorf("%s diverged from golden at line %d, row %s (run with -update after an intentional change)\ngot:  %s\nwant: %s",
			golden, i+1, row, lineAt(g, i), lineAt(w, i))
	}
}

func summarize(name string, res *Result) libraryRow {
	return libraryRow{
		Name:             name,
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
	}
}

// lineAt returns lines[i], or "<EOF>" past the end.
func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<EOF>"
}
