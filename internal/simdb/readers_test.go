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

// copyLast is the ring read QueryLog made before it read into a
// caller's buffer: a fresh slice of the newest min(n, stored) entries,
// oldest first.
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

// TestQueryLogIntoMatchesCopy reads an empty, a partial, a full and a
// wrapped ring, for n from 0 to past its size, into a nil buffer, one
// too short and a dirty one long enough to reuse: every read equals
// the copying read.
func TestQueryLogIntoMatchesCopy(t *testing.T) {
	const size = 8
	for _, added := range []int{0, 3, size, size + 5, 3*size + 1} {
		r := newRingLog(size)
		for i := 0; i < added; i++ {
			r.add(LogEntry{TemplateID: fmt.Sprintf("t%d", i), Class: sqlparse.Class(i % 3)})
		}
		for _, n := range []int{0, 1, size / 2, size, size + 3} {
			want := copyLast(r, n)
			dirty := make([]LogEntry, size+4)
			for i := range dirty {
				dirty[i] = LogEntry{TemplateID: "stale", Class: sqlparse.ClassOther}
			}
			for name, dst := range map[string][]LogEntry{"nil": nil, "short": make([]LogEntry, 1), "dirty": dirty} {
				got := r.lastInto(dst, n)
				if !slices.Equal(got, want) {
					t.Fatalf("%d added, n=%d, %s buffer: got %v, want %v", added, n, name, got, want)
				}
				if name == "dirty" && &got[:1][0] != &dirty[0] {
					t.Fatalf("%d added, n=%d: a buffer with room was not reused", added, n)
				}
			}
		}
	}
}

// TestQueryLogIntoReusesItsBuffer: on a live engine, reading the log
// into a buffer with room equals QueryLog and allocates nothing.
func TestQueryLogIntoReusesItsBuffer(t *testing.T) {
	e := newPG(t, m4Large(), 26*workload.GiB)
	gen := workload.NewTPCC(26*workload.GiB, 3300)
	for i := 0; i < 4; i++ {
		if _, err := e.RunWindow(gen, 5*time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	buf := e.QueryLogInto(nil, DefaultQueryLogSize)
	if len(buf) != DefaultQueryLogSize || !slices.Equal(buf, e.QueryLog(DefaultQueryLogSize)) {
		t.Fatalf("QueryLogInto read %d entries unlike QueryLog", len(buf))
	}
	if allocs := testing.AllocsPerRun(20, func() { buf = e.QueryLogInto(buf, DefaultQueryLogSize) }); allocs != 0 {
		t.Fatalf("a read into a buffer with room made %v allocations, want 0", allocs)
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
