package simdb

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"autodbaas/internal/knobs"
	"autodbaas/internal/workload"
)

// scratchCohort is two replica sets of different engines, workloads and
// sample counts: a PostgreSQL TPC-C master that draws the full 192
// statements a window, and a MySQL YCSB one at a rate low enough to
// draw 30, so a shared scratch hands each set slots the other filled.
func scratchCohort(t *testing.T) (sets []*ReplicaSet, gens []workload.Generator) {
	t.Helper()
	for _, o := range []struct {
		eng knobs.Engine
		gen workload.Generator
	}{
		{knobs.Postgres, workload.NewTPCC(26*workload.GiB, 3300)},
		{knobs.MySQL, workload.NewYCSB(20*workload.GiB, 0.5)},
	} {
		rs, err := NewReplicaSet(Options{Engine: o.eng, Resources: m4Large(), DBSizeBytes: o.gen.DBSizeBytes(), Seed: 11}, 1)
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, rs)
		gens = append(gens, o.gen)
	}
	return sets, gens
}

// scratchRun is what one replica set's windows produced: every node's
// window stats, then every node's encoded CheckpointState.
type scratchRun struct {
	windows []WindowStats
	states  [][]byte
}

func (r *scratchRun) step(t *testing.T, rs *ReplicaSet, gen workload.Generator) {
	for _, e := range rs.Nodes() {
		st, err := e.RunWindow(gen, time.Minute)
		if err != nil {
			t.Error(err)
			return
		}
		r.windows = append(r.windows, st)
	}
}

func (r *scratchRun) finish(t *testing.T, rs *ReplicaSet) {
	for _, e := range rs.Nodes() {
		b, err := json.Marshal(e.CheckpointState())
		if err != nil {
			t.Fatal(err)
		}
		r.states = append(r.states, b)
	}
}

func (r *scratchRun) equal(o *scratchRun) bool {
	return slices.Equal(r.windows, o.windows) && slices.EqualFunc(r.states, o.states, bytes.Equal)
}

// TestInterleavedEnginesMatchSolo: window scratch is shared by every
// engine in the process, one per window in flight. Two replica sets
// stepped window by window in alternation, and stepped from two
// goroutines at once, give each node the window stats and the
// CheckpointState bytes it gets when its set is stepped alone.
func TestInterleavedEnginesMatchSolo(t *testing.T) {
	const windows = 12
	solo := make([]scratchRun, 2)
	for i := range solo {
		sets, gens := scratchCohort(t)
		for w := 0; w < windows; w++ {
			solo[i].step(t, sets[i], gens[i])
		}
		solo[i].finish(t, sets[i])
	}

	sets, gens := scratchCohort(t)
	alt := make([]scratchRun, 2)
	for w := 0; w < windows; w++ {
		for i := range sets {
			alt[i].step(t, sets[i], gens[i])
		}
	}
	sets2, gens2 := scratchCohort(t)
	conc := make([]scratchRun, 2)
	var wg sync.WaitGroup
	for i := range sets2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for w := 0; w < windows; w++ {
				conc[i].step(t, sets2[i], gens2[i])
			}
		}()
	}
	wg.Wait()
	for i := range sets {
		alt[i].finish(t, sets[i])
		conc[i].finish(t, sets2[i])
		if !alt[i].equal(&solo[i]) {
			t.Errorf("set %d stepped in alternation differs from the set stepped alone", i)
		}
		if !conc[i].equal(&solo[i]) {
			t.Errorf("set %d stepped concurrently differs from the set stepped alone", i)
		}
	}
}

// TestEngineHeapAfterOneWindow: an engine that has run a window holds
// its state — configuration, counters, query log, template profiles —
// and no window scratch. 64 engines run one window each, and the live
// heap they hold is measured after a GC.
func TestEngineHeapAfterOneWindow(t *testing.T) {
	const n = 64
	gen := workload.NewTPCC(4*workload.GiB, 1200)
	engines := make([]*Engine, n)
	// Warm what the process shares (template caches, the free list's
	// scratch) before the baseline.
	warm, err := NewEngine(Options{Engine: knobs.Postgres, Resources: m4Large(), DBSizeBytes: gen.DBSizeBytes(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.RunWindow(gen, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := range engines {
		e, err := NewEngine(Options{Engine: knobs.Postgres, Resources: m4Large(), DBSizeBytes: gen.DBSizeBytes(), Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.RunWindow(gen, 5*time.Minute); err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	per := (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / n
	runtime.KeepAlive(engines)
	t.Logf("%.0f B of heap per engine after one window", per)
	if per > 32<<10 || math.IsNaN(per) {
		t.Fatalf("an engine keeps %.0f B of heap after one window, want at most %d", per, 32<<10)
	}
}
