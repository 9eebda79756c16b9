package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"autodbaas/internal/agent"
	"autodbaas/internal/cluster"
	"autodbaas/internal/faults"
	"autodbaas/internal/knobs"
	"autodbaas/internal/sqlparse"
	"autodbaas/internal/tde"
	"autodbaas/internal/workload"
)

// editJSON rewrites the object at path inside raw, leaving every other
// value's bytes as they were.
func editJSON(t *testing.T, raw []byte, path []string, edit func(obj map[string]json.RawMessage)) []byte {
	t.Helper()
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(raw, &obj); err != nil {
		t.Fatal(err)
	}
	if len(path) == 0 {
		edit(obj)
	} else {
		obj[path[0]] = editJSON(t, obj[path[0]], path[1:], edit)
	}
	out, err := json.Marshal(obj)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func mustJSON(t *testing.T, v any) json.RawMessage {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// legacyStats and legacyPoint are the shapes in which snapshots stored
// a TDE's per-template table and a monitor's series before each kept
// only its aggregate.
type legacyStats struct {
	Template sqlparse.Template
	Count    int
}

type legacyPoint struct {
	At    time.Time
	Value float64
}

// legacyRecorder rebuilds, step by step, what a TDE's template table
// and a monitor's series held before they became aggregates: every
// tick ingested the newest log batch into the table, and every accepted
// scrape appended one point to each of four series.
type legacyRecorder struct {
	tables map[string]map[string]legacyStats
	points map[string][]legacyPoint
	ticks  map[string]int
}

func newLegacyRecorder() *legacyRecorder {
	return &legacyRecorder{
		tables: make(map[string]map[string]legacyStats),
		points: make(map[string][]legacyPoint),
		ticks:  make(map[string]int),
	}
}

func (r *legacyRecorder) step(t *testing.T, s *System) {
	t.Helper()
	res := s.Step(5 * time.Minute)
	for _, a := range s.Agents() {
		id := a.Instance().ID
		if n := a.TDE().Ticks(); n != r.ticks[id] {
			r.ticks[id] = n
			table := r.tables[id]
			if table == nil {
				table = make(map[string]legacyStats)
				r.tables[id] = table
			}
			for _, le := range a.Instance().Replica.Master().QueryLog(tde.DefaultConfig().LogBatch) {
				st := table[le.TemplateID]
				st.Template = sqlparse.Template{ID: le.TemplateID, Class: le.Class}
				st.Count++
				table[le.TemplateID] = st
			}
		}
		mon, _ := s.Monitor(id)
		if st := mon.CheckpointState(); st.Count != len(r.points[id]) {
			r.points[id] = append(r.points[id], legacyPoint{At: st.Last, Value: res.Windows[id].DiskLatencyMs})
		}
	}
}

// histogram is what the legacy table reported: counts summed by class.
func (r *legacyRecorder) histogram(id string) [sqlparse.NumClasses]int {
	var h [sqlparse.NumClasses]int
	for _, st := range r.tables[id] {
		h[st.Template.Class] += st.Count
	}
	return h
}

// section rewrites one instance section into the legacy shape.
func (r *legacyRecorder) section(t *testing.T, id string, payload []byte) []byte {
	t.Helper()
	payload = editJSON(t, payload, []string{"agent", "tde"}, func(obj map[string]json.RawMessage) {
		delete(obj, "classes")
		obj["templates"] = mustJSON(t, r.tables[id])
	})
	return editJSON(t, payload, nil, func(obj map[string]json.RawMessage) {
		series := make(map[string][]legacyPoint)
		for _, name := range []string{"disk_latency_ms", "iops", "throughput_qps", "p99_latency_ms"} {
			series[name] = r.points[id]
		}
		obj["monitor"] = mustJSON(t, series)
	})
}

// TestRestoreLegacyAggregates: a snapshot whose instance sections hold
// the per-template tables and monitor series written before the TDE and
// the monitor kept only aggregates restores the class histograms and
// sample counts that those tables and series reported, re-encodes to the
// current snapshot's bytes, and resumes to the uninterrupted run's
// fingerprint.
func TestRestoreLegacyAggregates(t *testing.T) {
	if testing.Short() {
		t.Skip("builds fleets")
	}
	const cut, more = 8, 6
	build := func() *System { return buildCkptFleetOf(t, 2, faults.New(99, faults.Medium()), 6) }
	live := build()
	rec := newLegacyRecorder()
	for i := 0; i < cut; i++ {
		rec.step(t, live)
	}
	for _, a := range live.Agents() {
		id := a.Instance().ID
		if got, want := a.TDE().CheckpointState().Classes, rec.histogram(id); got != want {
			t.Fatalf("%s: TDE histogram %v, the template table sums to %v", id, got, want)
		}
		if mon, _ := live.Monitor(id); mon.Series("disk_latency_ms").Len() != len(rec.points[id]) {
			t.Fatalf("%s: monitor counts %d samples, the series hold %d", id, mon.Series("disk_latency_ms").Len(), len(rec.points[id]))
		}
		if len(rec.tables[id]) == 0 || len(rec.points[id]) == 0 {
			t.Fatalf("%s: nothing recorded", id)
		}
	}
	var snap bytes.Buffer
	if err := live.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	legacySnap := restage(t, snap.Bytes(), func(name string, p []byte) ([]byte, bool) {
		if id, ok := strings.CutPrefix(name, "instance/"); ok {
			return rec.section(t, id, p), true
		}
		return p, true
	})

	legacy := build()
	if err := legacy.Restore(bytes.NewReader(legacySnap)); err != nil {
		t.Fatalf("legacy restore: %v", err)
	}
	for _, a := range legacy.Agents() {
		id := a.Instance().ID
		if got, want := a.TDE().CheckpointState().Classes, rec.histogram(id); got != want {
			t.Errorf("%s: restored histogram %v, the legacy table reported %v", id, got, want)
		}
		mon, _ := legacy.Monitor(id)
		pts := rec.points[id]
		if st := mon.CheckpointState(); st.Count != len(pts) || !st.Last.Equal(pts[len(pts)-1].At) {
			t.Errorf("%s: restored monitor %+v, the legacy series held %d samples, the last at %v", id, st, len(pts), pts[len(pts)-1].At)
		}
	}
	var again bytes.Buffer
	if err := legacy.Checkpoint(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), snap.Bytes()) {
		t.Error("a legacy-restored fleet re-encodes to different bytes than the current snapshot")
	}

	stepN(live, more)
	stepN(legacy, more)
	if !reflect.DeepEqual(fingerprintSystem(live), fingerprintSystem(legacy)) {
		t.Error("legacy-restored fleet diverged from the uninterrupted run")
	}
}

// TestRestoreRejectsBadAggregates: an instance section whose class
// histogram or monitor count is negative, or whose legacy template
// table names a class sqlparse does not define, is refused with an
// error naming the section before that section restores anything.
func TestRestoreRejectsBadAggregates(t *testing.T) {
	if testing.Short() {
		t.Skip("builds fleets")
	}
	data, build := snapshotForCorruption(t)
	const target = "instance/db-02"
	cases := map[string]func(t *testing.T, p []byte) []byte{
		"negative histogram count": func(t *testing.T, p []byte) []byte {
			return editJSON(t, p, []string{"agent", "tde"}, func(obj map[string]json.RawMessage) {
				var h [sqlparse.NumClasses]int
				h[sqlparse.ClassJoin] = -1
				obj["classes"] = mustJSON(t, h)
			})
		},
		"negative monitor count": func(t *testing.T, p []byte) []byte {
			return editJSON(t, p, []string{"monitor"}, func(obj map[string]json.RawMessage) {
				obj["count"] = json.RawMessage("-1")
			})
		},
		"legacy template class out of range": func(t *testing.T, p []byte) []byte {
			return editJSON(t, p, []string{"agent", "tde"}, func(obj map[string]json.RawMessage) {
				delete(obj, "classes")
				obj["templates"] = mustJSON(t, map[string]legacyStats{
					"0123456789abcdef": {Template: sqlparse.Template{ID: "0123456789abcdef", Class: sqlparse.Class(sqlparse.NumClasses)}, Count: 3},
				})
			})
		},
		"legacy template negative count": func(t *testing.T, p []byte) []byte {
			return editJSON(t, p, []string{"agent", "tde"}, func(obj map[string]json.RawMessage) {
				delete(obj, "classes")
				obj["templates"] = mustJSON(t, map[string]legacyStats{
					"0123456789abcdef": {Template: sqlparse.Template{ID: "0123456789abcdef", Class: sqlparse.ClassSort}, Count: -3},
				})
			})
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			restaged := restage(t, data, func(sec string, p []byte) ([]byte, bool) {
				if sec == target {
					return corrupt(t, p), true
				}
				return p, true
			})
			fresh, s := build(), build()
			err := s.Restore(bytes.NewReader(restaged))
			if err == nil || !strings.Contains(err.Error(), target) {
				t.Fatalf("want an error naming %q, got: %v", target, err)
			}
			for i, a := range s.Agents() {
				if a.Instance().ID != strings.TrimPrefix(target, "instance/") {
					continue
				}
				want := fresh.Agents()[i]
				if !a.Instance().Replica.Master().Now().Equal(want.Instance().Replica.Master().Now()) || a.TDE().Ticks() != 0 {
					t.Errorf("%s restored state before it was refused", target)
				}
			}
		})
	}
}

// distinctScans is a generator that cycles through n tables, so its
// statement stream carries n distinct templates.
type distinctScans struct {
	tpls []sqlparse.Template
	next int
}

func newDistinctScans(n int) *distinctScans {
	g := &distinctScans{}
	for i := 0; i < n; i++ {
		g.tpls = append(g.tpls, sqlparse.TemplateOf(fmt.Sprintf("SELECT v FROM t_%d ORDER BY v", i)))
	}
	return g
}

func (g *distinctScans) Name() string                  { return "distinct-scans" }
func (g *distinctScans) DBSizeBytes() float64          { return 4 * workload.GiB }
func (g *distinctScans) RequestRate(time.Time) float64 { return 500 }
func (g *distinctScans) Sample(*rand.Rand) workload.Query {
	tpl := g.tpls[g.next%len(g.tpls)]
	g.next++
	return workload.Query{Class: tpl.Class, Template: tpl, Profile: workload.Profile{ReadBytes: 64 * workload.KiB, MemDemand: 8 << 20}}
}

// aggregateBytes runs one instance of g for windows windows and returns
// the JSON bytes its instance section spends on the TDE and the monitor.
func aggregateBytes(t *testing.T, g workload.Generator, windows int) (tdeBytes, monBytes int) {
	t.Helper()
	s := newSystem(t)
	if _, err := s.AddInstance(InstanceSpec{
		Provision: cluster.ProvisionSpec{
			ID: "db-1", Plan: "m4.large", Engine: knobs.Postgres,
			DBSizeBytes: g.DBSizeBytes(), Seed: 5,
		},
		Workload: g,
		Agent:    agent.Options{TickEvery: 5 * time.Minute},
	}); err != nil {
		t.Fatal(err)
	}
	stepN(s, windows)
	payload, _, err := s.ExportInstanceSection("db-1")
	if err != nil {
		t.Fatal(err)
	}
	var inst struct {
		Agent struct {
			TDE json.RawMessage `json:"tde"`
		} `json:"agent"`
		Monitor json.RawMessage `json:"monitor"`
	}
	if err := json.Unmarshal(payload, &inst); err != nil {
		t.Fatal(err)
	}
	return len(inst.Agent.TDE), len(inst.Monitor)
}

// TestAggregateBytesFlat: what an instance's snapshot spends on its TDE
// and its monitor depends neither on how long it ran nor on how many
// distinct templates its workload carries. Counter and float widths
// still vary, so sizes may differ by a few bytes; a per-template table
// or a per-window series would differ by kilobytes.
func TestAggregateBytesFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 200 windows")
	}
	const slack = 64 // bytes
	baseTDE, baseMon := aggregateBytes(t, newDistinctScans(10), 20)
	t.Logf("10 templates, 20 windows: TDE %d bytes, monitor %d bytes", baseTDE, baseMon)
	for _, c := range []struct {
		templates, windows int
	}{{10, 200}, {1000, 20}} {
		tdeBytes, monBytes := aggregateBytes(t, newDistinctScans(c.templates), c.windows)
		t.Logf("%d templates, %d windows: TDE %d bytes, monitor %d bytes", c.templates, c.windows, tdeBytes, monBytes)
		if d := tdeBytes - baseTDE; d > slack || d < -slack {
			t.Errorf("%d templates, %d windows: TDE bytes %d, want %d ± %d", c.templates, c.windows, tdeBytes, baseTDE, slack)
		}
		if d := monBytes - baseMon; d > slack || d < -slack {
			t.Errorf("%d templates, %d windows: monitor bytes %d, want %d ± %d", c.templates, c.windows, monBytes, baseMon, slack)
		}
	}
}
