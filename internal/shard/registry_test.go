package shard

import (
	"maps"
	"testing"

	"autodbaas/internal/obs"
)

// instanceSeries returns the autodbaas_simdb_counter series of one
// instance in the default registry: counter label → value.
func instanceSeries(id string) map[string]float64 {
	out := make(map[string]float64)
	for _, m := range obs.Default().Snapshot() {
		if m.Name == "autodbaas_simdb_counter" && m.Labels["instance"] == id {
			out[m.Labels["counter"]] = m.Value
		}
	}
	return out
}

// TestRebalanceMovesRegistrySeries: an in-process Rebalance imports the
// database into the destination before it removes it from the source.
// The source's removal takes the series with it, the destination
// registers them at its first step, the source agent, released again,
// removes nothing the destination holds, and the database's removal
// from the fleet takes the destination's series.
func TestRebalanceMovesRegistrySeries(t *testing.T) {
	c := newLocalCoordinator(t, shardConfigs("")[:2])
	spec := testSpec(0)
	spec.ID = "regmove-00"
	if err := c.AddInstanceTo("s0", spec); err != nil {
		t.Fatal(err)
	}
	fleetStepN(t, c, 2)
	counters := func(shard string) map[string]float64 {
		a, ok := c.byName[shard].(*Local).System().Agent(spec.ID)
		if !ok {
			t.Fatalf("%s holds no agent for %s", shard, spec.ID)
		}
		return a.Instance().Replica.Master().CountersInto(nil)
	}
	if got, want := instanceSeries(spec.ID), counters("s0"); len(want) == 0 || !maps.Equal(got, want) {
		t.Fatalf("before the move: series %v, engine counters %v", got, want)
	}
	src, _ := c.byName["s0"].(*Local).System().Agent(spec.ID)

	if err := c.Rebalance(spec.ID, "s1"); err != nil {
		t.Fatal(err)
	}
	if got := instanceSeries(spec.ID); len(got) != 0 {
		t.Fatalf("after the move, before a step: %d series left behind: %v", len(got), got)
	}
	fleetStepN(t, c, 1)
	want := counters("s1")
	if got := instanceSeries(spec.ID); len(want) == 0 || !maps.Equal(got, want) {
		t.Fatalf("after the next step: series %v, engine counters %v", got, want)
	}
	src.ReleaseMetrics()
	if got := instanceSeries(spec.ID); !maps.Equal(got, want) {
		t.Fatalf("releasing the source agent again removed the destination's series: %v", got)
	}
	if err := c.RemoveInstance(spec.ID); err != nil {
		t.Fatal(err)
	}
	if got := instanceSeries(spec.ID); len(got) != 0 {
		t.Fatalf("series left after the database left the fleet: %v", got)
	}
}
