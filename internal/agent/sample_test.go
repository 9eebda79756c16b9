package agent

import (
	"math"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"autodbaas/internal/cluster"
	"autodbaas/internal/tuner"
	"autodbaas/internal/workload"
)

// storeSink stores every uploaded sample, as the repository does.
type storeSink struct{ s *tuner.Store }

func (k storeSink) Observe(s tuner.Sample) error {
	k.s.Add(s)
	return nil
}

// TestUploadsShareWorkloadIDAndConfig: the samples one agent uploads
// under one workload and one configuration share the workload ID
// string and the config vector; a workload shift gives a new ID.
func TestUploadsShareWorkloadIDAndConfig(t *testing.T) {
	inst := provision(t, "db-7")
	sink := &recordingSink{}
	sw := workload.NewSwitch(workload.NewTPCC(21*cluster.GiB, 2000), workload.NewYCSB(21*cluster.GiB, 2000))
	a, err := New(inst, sw, nil, sink, Options{TickEvery: 5 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	run := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, _, err := a.RunWindow(5 * time.Minute); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(3)
	sw.Flip()
	run(2)
	if len(sink.samples) != 5 {
		t.Fatalf("uploaded %d samples, want 5", len(sink.samples))
	}
	for i, want := range []string{"db-7/tpcc", "db-7/tpcc", "db-7/tpcc", "db-7/ycsb", "db-7/ycsb"} {
		if got := sink.samples[i].WorkloadID; got != want {
			t.Fatalf("sample %d has workload ID %q, want %q", i, got, want)
		}
	}
	for _, pair := range [][2]int{{0, 1}, {1, 2}, {3, 4}} {
		x, y := sink.samples[pair[0]], sink.samples[pair[1]]
		if unsafe.StringData(x.WorkloadID) != unsafe.StringData(y.WorkloadID) {
			t.Errorf("samples %d and %d carry separate copies of workload ID %q", pair[0], pair[1], x.WorkloadID)
		}
	}
	for i, s := range sink.samples[1:] {
		if &s.Config.Vals[0] != &sink.samples[0].Config.Vals[0] {
			t.Errorf("sample %d holds its own copy of an unchanged config", i+1)
		}
	}
}

// TestAgentStoredSampleHeap: what one stored sample of a database that
// uploads every window under one configuration keeps on the heap. Its
// workload ID and config vector are the database's, shared by every
// such sample, so it keeps its metric vector, which packs only the
// nonzero values of its 35 metrics (about half of them), and its 152 B
// slot in one of the store's fixed-size chunks: about 310 B. Dense
// metric vectors (a 288 B object each) in slices that append grows
// ahead of use made it about 455 B; a copy of the config vector (160 B)
// and of the ID in every sample would add about 170 B more.
func TestAgentStoredSampleHeap(t *testing.T) {
	const n = 2000
	inst := provision(t, "db-8")
	store := tuner.NewStore()
	a, err := New(inst, workload.NewTPCC(21*cluster.GiB, 2000), nil, storeSink{store}, Options{TickEvery: 5 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	run := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, _, err := a.RunWindow(5 * time.Minute); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm the engine, TDE and caches up to their steady size first.
	run(200)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	run(n)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	per := (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / n
	runtime.KeepAlive(a)
	if store.Len() != 200+n {
		t.Fatalf("stored %d samples, want %d", store.Len(), 200+n)
	}
	t.Logf("%.0f B of heap per stored sample", per)
	if per > 360 || math.IsNaN(per) {
		t.Fatalf("a stored sample keeps %.0f B of heap, want at most 360", per)
	}
}
