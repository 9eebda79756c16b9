package simdb

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"autodbaas/internal/knobs"
	"autodbaas/internal/sqlparse"
	"autodbaas/internal/workload"
)

func aggQuery(memMB float64) workload.Query {
	return workload.Query{
		SQL:   "SELECT COUNT(*) FROM t GROUP BY k",
		Class: sqlparse.ClassAggregate,
		Profile: workload.Profile{
			MemDemand:      memMB * 1024 * 1024,
			ReadBytes:      2 * workload.GiB,
			Parallelizable: true,
		},
	}
}

func pointQuery() workload.Query {
	return workload.Query{
		SQL:   "SELECT * FROM t WHERE id = 1",
		Class: sqlparse.ClassSimpleSelect,
		Profile: workload.Profile{
			ReadBytes:     64 * 1024,
			IndexFriendly: true,
		},
	}
}

// remember records q's profile under an ID of its own (its class and
// profile), as RunWindow does for an executed statement, and returns
// the ID.
func remember(e *Engine, q workload.Query) string {
	id := fmt.Sprintf("%d/%+v", q.Class, q.Profile)
	e.mu.Lock()
	e.rememberProfileLocked(id, q.Class, &q.Profile)
	e.mu.Unlock()
	return id
}

// explain plans q through ExplainTemplate.
func explain(t *testing.T, e *Engine, q workload.Query) Plan {
	t.Helper()
	p, _, ok := e.ExplainTemplate(remember(e, q))
	if !ok {
		t.Fatal("a remembered template was not explained")
	}
	return p
}

// price prices qs under override through HypotheticalRunTemplatesMs.
func price(t *testing.T, e *Engine, override knobs.Config, qs []workload.Query) float64 {
	t.Helper()
	ids := make([]string, len(qs))
	for i, q := range qs {
		ids[i] = remember(e, q)
	}
	ms, n := e.HypotheticalRunTemplatesMs(override, ids)
	if n != len(qs) {
		t.Fatalf("priced %d of %d statements", n, len(qs))
	}
	return ms
}

func TestExplainReportsSpill(t *testing.T) {
	e := newPG(t, m4XLarge(), 24*workload.GiB)
	p := explain(t, e, aggQuery(350)) // default work_mem = 4MB
	if !p.UsesDisk {
		t.Fatal("350MB aggregation must spill under 4MB work_mem")
	}
	if p.MemRequired <= p.MemGranted {
		t.Fatalf("required %g, granted %g", p.MemRequired, p.MemGranted)
	}
	if err := e.ApplyConfig(knobs.Config{"work_mem": workload.GiB}, ApplyReload); err != nil {
		t.Fatal(err)
	}
	if p := explain(t, e, aggQuery(350)); p.UsesDisk {
		t.Fatal("1GB work_mem should not spill on 350MB demand")
	}
}

func TestHypotheticalOverlayDoesNotMutate(t *testing.T) {
	e := newPG(t, m4XLarge(), 24*workload.GiB)
	qs := []workload.Query{aggQuery(350)}
	live := price(t, e, nil, qs)
	if fitting := price(t, e, knobs.Config{"work_mem": workload.GiB}, qs); !(fitting < live) {
		t.Fatal("overlay not applied")
	}
	if e.Config()["work_mem"] != 4*1024*1024 {
		t.Fatal("the overlay mutated the live config")
	}
	if again := price(t, e, nil, qs); again != live {
		t.Fatalf("live pricing moved after an overlay: %g, then %g", live, again)
	}
}

func TestIndexScanChosenForSelectiveQueries(t *testing.T) {
	e := newPG(t, m4XLarge(), 24*workload.GiB)
	if p := explain(t, e, pointQuery()); p.Scan != IndexScan {
		t.Fatalf("point query planned as %v", p.Scan)
	}
	// A hostile cost configuration flips the plan to seq scan.
	if err := e.ApplyConfig(knobs.Config{"random_page_cost": 10, "seq_page_cost": 0.1, "cpu_tuple_cost": 0.001}, ApplyReload); err != nil {
		t.Fatal(err)
	}
	if p := explain(t, e, pointQuery()); p.Scan != SeqScan {
		t.Fatalf("hostile costs still planned %v", p.Scan)
	}
}

func TestParallelWorkersRequestedForBigScans(t *testing.T) {
	e := newPG(t, m4XLarge(), 24*workload.GiB)
	if p := explain(t, e, aggQuery(350)); p.ParallelWorkers != 0 {
		t.Fatal("default max_parallel_workers_per_gather=0 must stay serial")
	}
	if err := e.ApplyConfig(knobs.Config{"max_parallel_workers_per_gather": 8}, ApplyReload); err != nil {
		t.Fatal(err)
	}
	p := explain(t, e, aggQuery(350))
	if p.ParallelWorkers < 1 {
		t.Fatal("big parallelizable scan did not request workers")
	}
}

func TestParallelismImprovesHypotheticalCost(t *testing.T) {
	e := newPG(t, m4XLarge(), 24*workload.GiB)
	qs := []workload.Query{aggQuery(2), aggQuery(2)} // fits memory; CPU-bound
	serial := price(t, e, nil, qs)
	par := price(t, e, knobs.Config{"max_parallel_workers_per_gather": 8}, qs)
	if !(par < serial) {
		t.Fatalf("parallel cost %.1f not below serial %.1f", par, serial)
	}
}

func TestHypotheticalSpillCostVisible(t *testing.T) {
	e := newPG(t, m4XLarge(), 24*workload.GiB)
	qs := []workload.Query{aggQuery(350)}
	spilling := price(t, e, nil, qs)
	fitting := price(t, e, knobs.Config{"work_mem": workload.GiB}, qs)
	if !(fitting < spilling) {
		t.Fatalf("fitting cost %.1f not below spilling %.1f", fitting, spilling)
	}
}

func TestMySQLPlannerUsesJoinBufferForJoins(t *testing.T) {
	e := newMy(t, m4XLarge(), 24*workload.GiB)
	join := workload.Query{
		SQL:   "SELECT a.x FROM a JOIN b ON a.id=b.id",
		Class: sqlparse.ClassJoin,
		Profile: workload.Profile{
			MemDemand: 10 * 1024 * 1024,
			ReadBytes: workload.GiB,
		},
	}
	p := explain(t, e, join)
	if p.MemGranted != e.Config()["join_buffer_size"] {
		t.Fatalf("join granted %g, want join_buffer_size %g", p.MemGranted, e.Config()["join_buffer_size"])
	}
	sortQ := workload.Query{
		SQL:     "SELECT x FROM a ORDER BY x",
		Class:   sqlparse.ClassSort,
		Profile: workload.Profile{MemDemand: 10 * 1024 * 1024, ReadBytes: workload.GiB},
	}
	if p := explain(t, e, sortQ); p.MemGranted != e.Config()["sort_buffer_size"] {
		t.Fatalf("sort granted %g, want sort_buffer_size", p.MemGranted)
	}
}

func TestScanTypeAndApplyMethodStrings(t *testing.T) {
	if SeqScan.String() != "seq scan" || IndexScan.String() != "index scan" {
		t.Fatal("scan strings wrong")
	}
	for _, c := range []struct {
		m    ApplyMethod
		want string
	}{{ApplyReload, "reload"}, {ApplySocketActivation, "socket-activation"}, {ApplyRestart, "restart"}} {
		if c.m.String() != c.want {
			t.Fatalf("%v", c.m)
		}
	}
	if !strings.Contains(ApplyMethod(9).String(), "unknown") {
		t.Fatal("unknown method string")
	}
}

func TestSplitDisksReducesDataDiskLoad(t *testing.T) {
	run := func(split bool) float64 {
		res := m4Large()
		res.SplitDisks = split
		e, err := NewEngine(Options{Engine: knobs.Postgres, Resources: res, DBSizeBytes: 26 * workload.GiB, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		gen := workload.NewTPCC(26*workload.GiB, 3300)
		var last WindowStats
		for i := 0; i < 20; i++ {
			last, err = e.RunWindow(gen, 30*time.Second)
			if err != nil {
				t.Fatal(err)
			}
		}
		return last.IOPS
	}
	if shared, split := run(false), run(true); !(split < shared) {
		t.Fatalf("split-disk IOPS %.0f not below shared %.0f", split, shared)
	}
}

func TestPlanFormat(t *testing.T) {
	e := newPG(t, m4XLarge(), 24*workload.GiB)
	out := explain(t, e, aggQuery(350)).Format()
	for _, want := range []string{"Seq Scan", "cost=", "Work Area", "(Disk)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if err := e.ApplyConfig(knobs.Config{"work_mem": workload.GiB, "max_parallel_workers_per_gather": 4}, ApplyReload); err != nil {
		t.Fatal(err)
	}
	out2 := explain(t, e, aggQuery(350)).Format()
	if !strings.Contains(out2, "(Memory)") || !strings.Contains(out2, "Workers Planned") {
		t.Fatalf("tuned plan rendering:\n%s", out2)
	}
}
