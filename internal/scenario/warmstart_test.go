package scenario

import (
	"context"
	"testing"

	"autodbaas/scenarios"
)

// replayColdStartWave runs the library's cold-start-wave scenario once
// at the given warm-start setting and returns the result plus the
// fleet's warm-start counts.
func replayColdStartWave(t *testing.T, warm bool) (*Result, [3]int64) {
	t.Helper()
	src, err := scenarios.Source("cold-start-wave")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(plan, RunConfig{Parallelism: 4, WarmStart: warm})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	h, m, s := r.Service().WarmStartCounts()
	return res, [3]int64{h, m, s}
}

// TestWarmStartReducesColdStartThrottles is the scenario-level contract
// behind the library baseline's +warm row: replaying the onboarding
// burst with warm starts on must engage for every joiner (only the
// anchor starts cold) and end with strictly fewer throttles than the
// cold replay.
func TestWarmStartReducesColdStartThrottles(t *testing.T) {
	cold, coldCounts := replayColdStartWave(t, false)
	warm, warmCounts := replayColdStartWave(t, true)

	if coldCounts != [3]int64{} {
		t.Fatalf("cold replay touched the warm-start path: %v", coldCounts)
	}
	// 9 provisions: the anchor misses (empty repository), the 8 wave
	// joiners all find donors.
	if warmCounts[0] != 8 || warmCounts[1] != 1 || warmCounts[2] <= 0 {
		t.Fatalf("warm replay counts hits/misses/seeded = %v, want 8/1/>0", warmCounts)
	}
	if warm.Throttles >= cold.Throttles {
		t.Fatalf("warm replay throttled %d, cold %d — warm starts must strictly reduce cold-start throttles", warm.Throttles, cold.Throttles)
	}
}

// TestWarmStartReplayDeterministic: the warm replay is part of the
// committed baseline, so it must be bit-stable run over run like every
// library scenario.
func TestWarmStartReplayDeterministic(t *testing.T) {
	a, _ := replayColdStartWave(t, true)
	b, _ := replayColdStartWave(t, true)
	if a.Fingerprint != b.Fingerprint || a.Throttles != b.Throttles {
		t.Fatalf("warm replay not deterministic: fp %s/%s throttles %d/%d", a.Fingerprint, b.Fingerprint, a.Throttles, b.Throttles)
	}
}
