package simdb

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"autodbaas/internal/knobs"
	"autodbaas/internal/sqlparse"
	"autodbaas/internal/workload"
)

func TestExplainTemplateAfterExecution(t *testing.T) {
	e := newPG(t, m4XLarge(), 24*workload.GiB)
	gen := workload.NewTPCH(24*workload.GiB, 40)
	if _, err := e.RunWindow(gen, time.Minute); err != nil {
		t.Fatal(err)
	}
	log := e.QueryLog(100)
	var planned, spilling int
	for _, le := range log {
		p, cls, ok := e.ExplainTemplate(le.TemplateID)
		if !ok {
			continue
		}
		if cls != le.Class {
			t.Fatalf("template %s: explained as class %s, logged as %s", le.TemplateID, cls, le.Class)
		}
		planned++
		if p.UsesDisk {
			spilling++
		}
	}
	if planned == 0 {
		t.Fatal("no logged query could be explained")
	}
	if spilling == 0 {
		t.Fatal("TPCH under default work_mem should show disk-using plans")
	}
}

func TestExplainTemplateUnknown(t *testing.T) {
	e := newPG(t, m4Large(), workload.GiB)
	if _, _, ok := e.ExplainTemplate(sqlparse.TemplateOf("SELECT * FROM never_executed WHERE id = 1").ID); ok {
		t.Fatal("unknown template explained")
	}
}

func TestHypotheticalRunSQL(t *testing.T) {
	e := newPG(t, m4XLarge(), 24*workload.GiB)
	gen := workload.NewTPCH(24*workload.GiB, 40)
	if _, err := e.RunWindow(gen, time.Minute); err != nil {
		t.Fatal(err)
	}
	ids := TemplateIDs(e.QueryLog(50))
	cur, n := e.HypotheticalRunTemplatesMs(nil, ids)
	if n == 0 || cur <= 0 {
		t.Fatalf("no statements priced: n=%d cur=%g", n, cur)
	}
	// Moderate work_mem removes spills without starving the page cache
	// (a 2 GiB grant would cost more in lost cache than it saves —
	// the knob tradeoff the tuner has to navigate).
	better, n2 := e.HypotheticalRunTemplatesMs(knobs.Config{"work_mem": 512 * 1024 * 1024}, ids)
	if n2 != n {
		t.Fatalf("priced count changed: %d vs %d", n, n2)
	}
	if !(better < cur) {
		t.Fatalf("bigger work_mem not cheaper: %g vs %g", better, cur)
	}
	unknown, n3 := e.HypotheticalRunTemplatesMs(nil, []string{sqlparse.TemplateOf("SELECT * FROM nowhere").ID})
	if n3 != 0 || unknown != 0 {
		t.Fatal("unknown statements should be skipped")
	}
}

// tableScan is a generator whose every query names its own table, so a
// stream of n queries carries n distinct templates.
type tableScan struct{ next int }

func (g *tableScan) Name() string                  { return "table-scan" }
func (g *tableScan) DBSizeBytes() float64          { return workload.GiB }
func (g *tableScan) RequestRate(time.Time) float64 { return 1000 }
func (g *tableScan) Sample(*rand.Rand) workload.Query {
	g.next++
	sql := fmt.Sprintf("SELECT v FROM t_%d WHERE k = 1", g.next)
	tpl := sqlparse.TemplateOf(sql)
	return workload.Query{SQL: sql, Class: tpl.Class, Template: tpl, Profile: workload.Profile{ReadBytes: 8 * workload.KiB}}
}

// Past maxProfiles templates the statistics store evicts, and which
// entry goes must not depend on map iteration order: two engines fed
// the same stream must snapshot the same state, and so must an engine
// restored from a snapshot and the one it was taken from.
func TestProfileEvictionIsDeterministic(t *testing.T) {
	run := func(e *Engine, gen *tableScan, until int) []byte {
		t.Helper()
		for gen.next < until {
			if _, err := e.RunWindow(gen, time.Minute); err != nil {
				t.Fatal(err)
			}
		}
		if n := len(e.profiles); n != maxProfiles {
			t.Fatalf("profiles = %d, want the cap %d", n, maxProfiles)
		}
		keys := make([]string, 0, len(e.profiles))
		for k := range e.profiles {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		if !slices.Equal(e.profileIDs, keys) {
			t.Fatal("profileIDs is not the sorted key set of profiles")
		}
		b, err := json.Marshal(e.CheckpointState())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, genA := newPG(t, m4Large(), workload.GiB), &tableScan{}
	b, genB := newPG(t, m4Large(), workload.GiB), &tableScan{}
	snapA := run(a, genA, maxProfiles+1500)
	if string(snapA) != string(run(b, genB, maxProfiles+1500)) {
		t.Fatal("two engines fed the same template stream checkpoint different states")
	}
	var st EngineState
	if err := json.Unmarshal(snapA, &st); err != nil {
		t.Fatal(err)
	}
	c, genC := newPG(t, m4Large(), workload.GiB), *genA
	if err := c.RestoreCheckpointState(st); err != nil {
		t.Fatal(err)
	}
	if string(run(a, genA, maxProfiles+3000)) != string(run(c, &genC, maxProfiles+3000)) {
		t.Fatal("a restored engine evicts differently from the one it was checkpointed from")
	}
}
