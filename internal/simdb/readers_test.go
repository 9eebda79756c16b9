package simdb

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"autodbaas/internal/metrics"
	"autodbaas/internal/sqlparse"
	"autodbaas/internal/workload"
)

// copyLast is the ring read QueryLog made before entries were visited
// in place: a fresh slice of the newest min(n, stored) entries, oldest
// first.
func copyLast(r *ringLog, n int) []LogEntry {
	size := r.next
	if r.full {
		size = len(r.buf)
	}
	if n > size {
		n = size
	}
	out := make([]LogEntry, n)
	start := r.next - n
	if start < 0 {
		start += len(r.buf)
	}
	k := copy(out, r.buf[start:])
	copy(out[k:], r.buf)
	return out
}

// visitLast collects what ringLog.each visits.
func visitLast(r *ringLog, n int) []LogEntry {
	var out []LogEntry
	r.each(n, func(le LogEntry) { out = append(out, le) })
	return out
}

// TestQueryLogVisitMatchesCopy visits an empty, a partial, a full and a
// wrapped ring, and a zero-slot one, for n from -1 to past its size:
// every visit sees the copying read's entries in its order, and stored
// counts them.
func TestQueryLogVisitMatchesCopy(t *testing.T) {
	const size = 8
	for _, tc := range []struct{ slots, added int }{{0, 0}, {0, 5}, {size, 0}, {size, 3}, {size, size}, {size, size + 5}, {size, 3*size + 1}} {
		r := newRingLog(tc.slots)
		for i := 0; i < tc.added && tc.slots > 0; i++ {
			r.add(LogEntry{TemplateID: fmt.Sprintf("t%d", i), Class: sqlparse.Class(i % 3)})
		}
		for _, n := range []int{-1, 0, 1, size / 2, size, size + 3} {
			want := copyLast(r, max(0, n))
			got := visitLast(r, n)
			if !slices.Equal(got, want) {
				t.Fatalf("%d slots, %d added, n=%d: visited %v, want %v", tc.slots, tc.added, n, got, want)
			}
			if r.stored(n) != len(want) {
				t.Fatalf("%d slots, %d added, n=%d: stored %d, want %d", tc.slots, tc.added, n, r.stored(n), len(want))
			}
		}
	}
}

// TestVisitQueryLogMatchesQueryLog: on a live engine, visiting the log
// sees QueryLog's entries and allocates nothing.
func TestVisitQueryLogMatchesQueryLog(t *testing.T) {
	e := newPG(t, m4Large(), 26*workload.GiB)
	gen := workload.NewTPCC(26*workload.GiB, 3300)
	for i := 0; i < 4; i++ {
		if _, err := e.RunWindow(gen, 5*time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	want := e.QueryLog(DefaultQueryLogSize)
	var got []LogEntry
	e.VisitQueryLog(DefaultQueryLogSize, func(le LogEntry) { got = append(got, le) })
	if len(got) != DefaultQueryLogSize || !slices.Equal(got, want) {
		t.Fatalf("VisitQueryLog saw %d entries unlike QueryLog's %d", len(got), len(want))
	}
	var classes [sqlparse.NumClasses]int
	if allocs := testing.AllocsPerRun(20, func() {
		e.VisitQueryLog(DefaultQueryLogSize, func(le LogEntry) { classes[le.Class]++ })
	}); allocs != 0 {
		t.Fatalf("a visit made %v allocations, want 0", allocs)
	}
}

// TestSnapshotIntoMatchesSnapshot: a snapshot written over a map that
// holds stale and foreign keys equals a fresh Snapshot, in that map.
func TestSnapshotIntoMatchesSnapshot(t *testing.T) {
	for _, e := range []*Engine{newPG(t, m4Large(), 26*workload.GiB), newMy(t, m4Large(), 26*workload.GiB)} {
		gen := workload.NewTPCC(26*workload.GiB, 3300)
		dst := metrics.Snapshot{"no_such_metric": 1, "disk_latency_ms": -5}
		for i := 0; i < 3; i++ {
			if _, err := e.RunWindow(gen, 5*time.Minute); err != nil {
				t.Fatal(err)
			}
			got := e.SnapshotInto(dst)
			if !reflect.DeepEqual(got, e.Snapshot()) {
				t.Fatalf("%s window %d: SnapshotInto differs from Snapshot", e.EngineName(), i)
			}
			if reflect.ValueOf(got).Pointer() != reflect.ValueOf(dst).Pointer() {
				t.Fatalf("%s: SnapshotInto did not write into the map it was given", e.EngineName())
			}
		}
	}
}

// TestKnobAndCountersIntoReadLiveState: Knob has map-index semantics
// over the active config, and CountersInto over a map with a stale key
// holds exactly the counters.
func TestKnobAndCountersIntoReadLiveState(t *testing.T) {
	e := newPG(t, m4Large(), 26*workload.GiB)
	if _, err := e.RunWindow(workload.NewTPCC(26*workload.GiB, 3300), 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	cfg := e.Config()
	for _, name := range append(e.KnobCatalog().Names(), "no_such_knob") {
		want, wantOK := cfg[name]
		if got, ok := e.Knob(name); got != want || ok != wantOK {
			t.Fatalf("Knob(%q) = %v, %v; want %v, %v", name, got, ok, want, wantOK)
		}
	}
	got := e.CountersInto(map[string]float64{"no_such_counter": 1})
	if len(got) == 0 || !reflect.DeepEqual(got, e.counters) {
		t.Fatalf("CountersInto read %v, counters are %v", got, e.counters)
	}
}
