package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// workloadReport is everything one workload produced in one set.
type workloadReport struct {
	Workload string `json:"workload"`
	Why      string `json:"why"`
	Seed     int64  `json:"seed"`
	NumCPU   int    `json:"num_cpu"`

	Correct   bool     `json:"correct"`
	Problems  []string `json:"problems,omitempty"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`

	Fingerprint string                `json:"fingerprint"`
	SetupS      []float64             `json:"setup_s_runs"`
	EndToEnd    map[string]float64    `json:"end_to_end"`
	Layer       map[string]layerValue `json:"per_layer,omitempty"`

	Untraced *runResult `json:"untraced"`
	Traced   *runResult `json:"traced,omitempty"`
}

// print writes every metric by name with its unit.
func (r *workloadReport) print(w io.Writer, outDir string) {
	u := r.Untraced
	fmt.Fprintf(w, "== %s (seed %d, %d cpu)\n   %s\n", r.Workload, r.Seed, r.NumCPU, r.Why)
	fmt.Fprintf(w, "   %d windows, %d instance-windows (schedule expects %d); operations attempted %d, failed %d\n",
		u.Windows, u.InstanceWindows, u.ExpectedInstanceWindows, r.Attempted, r.Failed)
	fmt.Fprintf(w, "   fingerprint %s, restored %s; correct: %v\n", u.Fingerprint, u.RestoredFingerprint, r.Correct)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "   PROBLEM: %s\n", p)
	}
	for _, f := range u.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
	fmt.Fprintf(w, "   end-to-end (untraced pass; setup_s is the median of %d cold set-ups)\n", len(r.SetupS))
	for _, d := range endToEndMetrics {
		note := ""
		if d.Name == "step_ms_p95" && u.TailPercentile != 95 {
			note = fmt.Sprintf("  [%d windows: p%.0f reported, p95 needs %d]", u.Windows, u.TailPercentile, 20*minBeyond)
		}
		fmt.Fprintf(w, "     %-28s %14.4f %-10s %s is better, bound %.0f%%%s\n",
			d.Name, r.EndToEnd[d.Name], d.Unit, d.Better, 100*d.Bound, note)
	}
	if r.Traced == nil {
		return
	}
	fmt.Fprintf(w, "   per-layer (traced pass, measured windows only; %d spans in %s/trace-%s.json, recording them cost %.3f%% of the measured time)\n",
		r.Traced.Spans, outDir, r.Workload, r.Traced.RecorderCostPct)
	for _, d := range perLayerMetrics {
		v := r.Layer[d.Name]
		if v.Absent {
			fmt.Fprintf(w, "     %-38s %14s %-10s [%s]\n", d.Name, "absent", d.Unit, d.Source)
			continue
		}
		fmt.Fprintf(w, "     %-38s %14.4f %-10s [%s]\n", d.Name, v.Value, d.Unit, d.Source)
	}
}

// contractMetric is one metric of the driver's result object.
type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine renders the driver's result object: the end-to-end
// metrics untraced, the per-layer metrics traced. The object has no
// way to say "absent", so an absent layer metric reads 0 there; the
// printed ledger and result-<workload>.json say which ones are absent.
func (r *workloadReport) contractLine(traced bool) (string, error) {
	metrics := make(map[string]contractMetric)
	if traced {
		for _, d := range perLayerMetrics {
			metrics[d.Name] = contractMetric{Value: r.Layer[d.Name].Value, Unit: d.Unit}
		}
	} else {
		for _, d := range endToEndMetrics {
			metrics[d.Name] = contractMetric{Value: r.EndToEnd[d.Name], Unit: d.Unit}
		}
	}
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return "", fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	raw, err := json.Marshal(struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]contractMetric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	return string(raw), err
}

// runAgree runs N full sets of the same code and seed and checks that
// they agree: every end-to-end metric within its bound, every exact
// count identical.
func runAgree(cl *cleanup, o options) error {
	sets := make(map[string][]*workloadReport)
	for i := 0; i < o.agree; i++ {
		for _, d := range o.selected() {
			fmt.Fprintf(os.Stderr, "bench: set %d/%d: %s\n", i+1, o.agree, d.Name)
			rep, err := runWorkload(cl, o, d)
			if err != nil {
				return err
			}
			sets[d.Name] = append(sets[d.Name], rep)
		}
	}
	var disagreements []string
	for _, d := range o.selected() {
		reps := sets[d.Name]
		fmt.Printf("== %s (seed %d, %d sets)\n", d.Name, o.seed, len(reps))
		fmt.Printf("     %-28s %12s %12s %12s %8s %6s\n", "metric", "min", "median", "max", "spread", "bound")
		for _, m := range endToEndMetrics {
			var vals []float64
			for _, r := range reps {
				vals = append(vals, r.EndToEnd[m.Name])
			}
			sorted := append([]float64(nil), vals...)
			sort.Float64s(sorted)
			spread := relSpread(vals)
			verdict := ""
			if spread > m.Bound {
				verdict = "  DISAGREE"
				disagreements = append(disagreements, fmt.Sprintf("%s %s: spread %.1f%% exceeds bound %.0f%%", d.Name, m.Name, 100*spread, 100*m.Bound))
			}
			fmt.Printf("     %-28s %12.4f %12.4f %12.4f %7.1f%% %5.0f%%%s\n",
				m.Name, sorted[0], median(vals), sorted[len(sorted)-1], 100*spread, 100*m.Bound, verdict)
		}
		first := reps[0]
		for i, r := range reps {
			if !r.Correct {
				disagreements = append(disagreements, fmt.Sprintf("%s set %d: %v", d.Name, i+1, r.Problems))
			}
			if r.Untraced.Throttles != first.Untraced.Throttles || r.Attempted != first.Attempted ||
				r.Failed != first.Failed || r.Fingerprint != first.Fingerprint {
				disagreements = append(disagreements, fmt.Sprintf(
					"%s set %d: throttles %d, attempted %d, failed %d, fingerprint %s; set 1: %d, %d, %d, %s",
					d.Name, i+1, r.Untraced.Throttles, r.Attempted, r.Failed, r.Fingerprint,
					first.Untraced.Throttles, first.Attempted, first.Failed, first.Fingerprint))
			}
		}
		fmt.Printf("     exact: throttles %d, attempted %d, failed %d, fingerprint %s\n",
			first.Untraced.Throttles, first.Attempted, first.Failed, first.Fingerprint)
	}
	if len(disagreements) > 0 {
		for _, d := range disagreements {
			fmt.Println("DISAGREE:", d)
		}
		return fmt.Errorf("%d disagreements between %d sets", len(disagreements), o.agree)
	}
	fmt.Printf("all %d sets agree\n", o.agree)
	return nil
}
