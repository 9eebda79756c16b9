package simdb

import (
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
		p, ok := e.ExplainTemplate(le.TemplateID)
		if !ok {
			continue
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
	if _, ok := e.ExplainTemplate(sqlparse.TemplateOf("SELECT * FROM never_executed WHERE id = 1").ID); ok {
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
