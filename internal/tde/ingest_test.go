package tde

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"autodbaas/internal/knobs"
	"autodbaas/internal/obs"
	"autodbaas/internal/workload"
)

// referenceTick is a tick whose ingest templates every log line from
// its raw SQL (Templatizer.Observe) instead of taking the ID the engine
// logged with it.
func referenceTick(t *TDE) []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, le := range t.db.QueryLog(t.cfg.LogBatch) {
		tpl := t.templatizer.Observe(le.SQL)
		t.reservoir.Offer(tpl.ID)
	}
	return t.detectLocked()
}

// templateLookups is the sqlparse template cache's hit+miss count: it
// moves every time anything templates raw SQL.
func templateLookups() float64 {
	c := obs.Cache("sqlparse_template")
	return c.Hits.Value() + c.Misses.Value()
}

// TestTickMatchesRawSQLIngest runs a TDE and a reference TDE over the
// same engine log. Ingesting by logged template ID must leave the
// templatizer state, reservoir sample and events byte-identical to
// templating each line's SQL.
func TestTickMatchesRawSQLIngest(t *testing.T) {
	for _, eng := range []knobs.Engine{knobs.Postgres, knobs.MySQL} {
		t.Run(string(eng), func(t *testing.T) {
			db := newEngine(t, eng, 21*workload.GiB)
			td, ref := newTDE(t, db), newTDE(t, db)
			gens := []workload.Generator{
				workload.NewAdulteratedTPCC(21*workload.GiB, 3000, 0.8),
				workload.NewTwitter(21*workload.GiB, 8000),
				workload.NewTPCH(21*workload.GiB, 40),
			}
			var events int
			for i := 0; i < 18; i++ {
				if _, err := db.RunWindow(gens[i%len(gens)], 5*time.Minute); err != nil {
					t.Fatal(err)
				}
				got, want := td.Tick(), referenceTick(ref)
				if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want); g != w {
					t.Fatalf("tick %d: events differ:\n  got  %s\n  want %s", i, g, w)
				}
				events += len(got)
				gs, _ := json.Marshal(td.templatizer.CheckpointState())
				ws, _ := json.Marshal(ref.templatizer.CheckpointState())
				if string(gs) != string(ws) {
					t.Fatalf("tick %d: templatizer state differs", i)
				}
				if !reflect.DeepEqual(td.reservoir.Sample(), ref.reservoir.Sample()) {
					t.Fatalf("tick %d: reservoir samples differ", i)
				}
			}
			if events == 0 {
				t.Fatal("no events raised: the comparison proved nothing")
			}
		})
	}
}

// TestTickDoesNotTemplate: once the templatizer knows every template in
// the log, a tick templates no SQL, even log lines it has never seen.
func TestTickDoesNotTemplate(t *testing.T) {
	db := newEngine(t, knobs.Postgres, 21*workload.GiB)
	td := newTDE(t, db)
	gen := workload.NewTPCC(21*workload.GiB, 3000)
	var known int
	for i := 0; i < 8; i++ {
		if _, err := db.RunWindow(gen, 5*time.Minute); err != nil {
			t.Fatal(err)
		}
		allKnown := true
		for _, le := range db.QueryLog(td.cfg.LogBatch) {
			if td.templatizer.Stats(le.TemplateID) == nil {
				allKnown = false
			}
		}
		before := templateLookups()
		td.Tick()
		if allKnown {
			known++
			if after := templateLookups(); after != before {
				t.Fatalf("window %d: tick over known templates made %.0f template lookups", i, after-before)
			}
		}
	}
	if known == 0 {
		t.Fatal("no window's log was fully known to the templatizer")
	}
	before := templateLookups()
	td.Tick()
	if after := templateLookups(); after != before {
		t.Fatalf("repeat tick made %.0f template lookups", after-before)
	}
}
