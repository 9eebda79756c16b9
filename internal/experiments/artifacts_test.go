package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autodbaas/internal/knobs"
)

var (
	update = flag.Bool("update", false, "rewrite the golden artifact files")
	full   = flag.Bool("full", false, "check the paper-sized artifacts in results/ instead of the scaled-down set in testdata/quick/")
)

// TestPaperArtifacts renders every table and figure of the paper's
// evaluation (seed 1, parallelism 0, chaos profile medium) and compares
// each byte for byte against its golden file. By default it runs the
// scaled-down sizes against testdata/quick/; with -full it runs the
// paper sizes against the committed results/ (Fig. 9's 80-database
// fleet dominates: minutes, not seconds). Every experiment is
// deterministic, so any change to any figure fails in either
// direction. Regenerate whichever set ran with -update:
//
//	go test ./internal/experiments -run TestPaperArtifacts -update
//	go test ./internal/experiments -run TestPaperArtifacts -full -update
func TestPaperArtifacts(t *testing.T) {
	const seed = 1
	dir := filepath.Join("testdata", "quick")
	size := func(paper, quick int) int { return quick }
	if *full {
		dir = filepath.Join("..", "..", "results")
		size = func(paper, quick int) int { return paper }
	}
	artifacts := []struct {
		file   string
		render func() string
	}{
		{"fig02_memory_stats.txt", func() string { return Fig2MemoryStats(seed).Render() }},
		{"fig03_entropy_p80.tsv", func() string { return Fig3Entropy(0.8, size(40, 10), size(1500, 300), seed).Render() }},
		{"fig04_entropy_p50.tsv", func() string { return Fig3Entropy(0.5, size(40, 10), size(1500, 300), seed).Render() }},
		{"fig05_disk_latency.tsv", func() string { return Fig5DiskLatency(size(20, 6), seed).Render() }},
		{"fig06_mdp_learning.tsv", func() string { return Fig6MDPLearning(size(24, 6), size(375, 100), seed).Render() }},
		{"fig07_reload_jitter.tsv", func() string { return Fig7ReloadJitter(size(15, 3), seed).Render() }},
		{"fig08_arrival_rate.tsv", func() string { return Fig8ArrivalRate(10).Render() }},
		{"fig09_request_rate.tsv", func() string { return Fig9RequestRate(size(80, 8), size(24, 6), seed).Render() }},
		{"fig10_throttles_postgres.txt", func() string { return Fig10Throttles(knobs.Postgres, size(22, 4), seed).Render() }},
		{"fig11_throttles_mysql.txt", func() string { return Fig10Throttles(knobs.MySQL, size(22, 4), seed).Render() }},
		{"fig12_throughput_bo.tsv", func() string {
			return Fig12ThroughputBO(knobs.Postgres, size(12, 4), size(8, 3), size(24, 8), seed).Render() + "\n" +
				Fig12ThroughputBO(knobs.MySQL, size(12, 4), size(8, 3), size(24, 8), seed).Render()
		}},
		{"fig13_throughput_rl.tsv", func() string {
			return Fig13ThroughputRL(knobs.Postgres, size(6, 2), size(4, 2), size(24, 8), seed).Render() + "\n" +
				Fig13ThroughputRL(knobs.MySQL, size(6, 2), size(4, 2), size(24, 8), seed).Render()
		}},
		{"table1_scenarios.txt", Table1Render},
		{"fig14_workload_shift.txt", func() string { return Fig14WorkloadShift(size(8, 4), seed).Render() }},
		{"fig15_throttle_accuracy.txt", func() string { return Fig15Accuracy(size(20, 8), size(8, 4), 2, seed).Render() }},
		{"chaos_soak.txt", func() string { return ChaosSoak(size(20, 6), size(24, 4), 0, seed, "medium").Render() }},
		{"ablations.txt", func() string {
			return AblationEntropyFilter([]int{2, 4, 8, 16, 64}, size(30, 10), seed).Render() + "\n" +
				AblationWorkloadMapping(seed).Render() + "\n" +
				AblationSplitDisks(size(15, 5), seed).Render()
		}},
	}
	for _, a := range artifacts {
		t.Run(a.file, func(t *testing.T) {
			path := filepath.Join(dir, a.file)
			got := a.render()
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to generate)", err)
			}
			if got != string(want) {
				line, g, w := firstDiff(got, string(want))
				t.Errorf("%s diverged from golden at line %d (run with -update after an intentional change)\ngot:  %s\nwant: %s", path, line, g, w)
			}
		})
	}
}

// firstDiff returns the 1-based number of the first line where got and
// want differ, and that line from each side ("<EOF>" past the end).
func firstDiff(got, want string) (int, string, string) {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	at := func(lines []string, i int) string {
		if i < len(lines) {
			return lines[i]
		}
		return "<EOF>"
	}
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	return i + 1, at(g, i), at(w, i)
}
