package core

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"autodbaas/internal/obs"
)

// counterSeries maps every instance whose ID starts with prefix to the
// sorted counter labels of its autodbaas_simdb_counter series in the
// default registry.
func counterSeries(prefix string) map[string][]string {
	out := make(map[string][]string)
	for _, m := range obs.Default().Snapshot() {
		if id := m.Labels["instance"]; m.Name == "autodbaas_simdb_counter" && strings.HasPrefix(id, prefix) {
			out[id] = append(out[id], m.Labels["counter"])
		}
	}
	for _, cs := range out {
		slices.Sort(cs)
	}
	return out
}

// TestRegistrySeriesFollowLiveDatabases onboards and offboards
// databases window after window: the registry holds one
// autodbaas_simdb_counter series per live database and engine counter,
// and none for a database that has left, and none once all have left.
func TestRegistrySeriesFollowLiveDatabases(t *testing.T) {
	const prefix = "regchurn-"
	s := newSystem(t)
	var live, gone []string
	for round := 0; round < 8; round++ {
		for k := 0; k < 2; k++ {
			id := fmt.Sprintf("%s%02d", prefix, 2*round+k)
			addTPCC(t, s, id, true)
			live = append(live, id)
		}
		s.Step(5 * time.Minute)
		for len(live) > 4 {
			if err := s.RemoveInstance(live[0]); err != nil {
				t.Fatal(err)
			}
			gone, live = append(gone, live[0]), live[1:]
		}
		want := make(map[string][]string)
		total := 0
		for _, a := range s.Agents() {
			var cs []string
			for c := range a.Instance().Replica.Master().CountersInto(nil) {
				cs = append(cs, c)
			}
			slices.Sort(cs)
			want[a.Instance().ID] = cs
			total += len(cs)
		}
		got := counterSeries(prefix)
		n := 0
		for _, cs := range got {
			n += len(cs)
		}
		if n != total || !maps.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("round %d: %d series for %d live databases (%d removed), want %d:\n got  %v\n want %v",
				round, n, len(live), len(gone), total, got, want)
		}
	}
	for _, id := range live {
		if err := s.RemoveInstance(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := counterSeries(prefix); len(gone) == 0 || len(got) != 0 {
		t.Fatalf("%d databases removed in rounds, and series left after removing the rest: %v", len(gone), got)
	}
}
