package tde

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"autodbaas/internal/knobs"
	"autodbaas/internal/obs"
	"autodbaas/internal/sqlparse"
	"autodbaas/internal/workload"
)

// recorder hands out its generator's statements and keeps the text of
// each, in order: the statement stream an engine's query log records.
type recorder struct {
	workload.Generator
	texts *[]string
}

func (r recorder) Sample(rng *rand.Rand) workload.Query {
	q := r.Generator.Sample(rng)
	*r.texts = append(*r.texts, q.Text())
	return q
}

// newest is the part of texts a tick reads: the newest entries the
// engine's ring holds, up to the TDE's log batch.
func newest(t *TDE, texts []string) []string {
	n := min(len(texts), t.cfg.LogBatch, t.db.QueryLogCap())
	return texts[len(texts)-n:]
}

// referenceTick is a tick whose ingest templates the text of every
// statement the log holds (sqlparse.TemplateOf) instead of taking the
// template the engine logged for it. texts is the engine's whole
// statement stream.
func referenceTick(t *TDE, texts []string) []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, sql := range newest(t, texts) {
		tpl := sqlparse.TemplateOf(sql)
		t.classes[tpl.Class]++
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
// same engine log. Ingesting by logged template must leave the class
// histogram, reservoir sample and events identical to templating the
// text of each logged statement.
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
			var texts []string
			var events int
			for i := 0; i < 18; i++ {
				if _, err := db.RunWindow(recorder{gens[i%len(gens)], &texts}, 5*time.Minute); err != nil {
					t.Fatal(err)
				}
				got, want := td.Tick(), referenceTick(ref, texts)
				if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want); g != w {
					t.Fatalf("tick %d: events differ:\n  got  %s\n  want %s", i, g, w)
				}
				events += len(got)
				if td.classes != ref.classes {
					t.Fatalf("tick %d: class histograms differ: %v, want %v", i, td.classes, ref.classes)
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

// TestLogIngestMatchesTextIngest: for every generator, a replayed trace
// among them, a TDE fed through RunWindow's query log ends with the
// class histogram that TemplateOf of each statement's text gives over
// the same sample stream.
func TestLogIngestMatchesTextIngest(t *testing.T) {
	var buf bytes.Buffer
	if err := workload.RecordTrace(&buf, workload.NewAdulteratedTPCC(4*workload.GiB, 500, 0.5), rand.New(rand.NewSource(5)), 300); err != nil {
		t.Fatal(err)
	}
	trace, err := workload.LoadTrace(&buf, "replay", 4*workload.GiB, 500)
	if err != nil {
		t.Fatal(err)
	}
	for _, gen := range []workload.Generator{
		workload.NewTPCC(4*workload.GiB, 500),
		workload.NewYCSB(4*workload.GiB, 500),
		workload.NewWikipedia(4*workload.GiB, 500),
		workload.NewTwitter(4*workload.GiB, 500),
		workload.NewTPCH(4*workload.GiB, 10),
		workload.NewCHBench(4*workload.GiB, 500),
		workload.NewProduction(),
		workload.NewAdulteratedTPCC(4*workload.GiB, 500, 0.8),
		trace,
	} {
		t.Run(gen.Name(), func(t *testing.T) {
			db := newEngine(t, knobs.Postgres, 4*workload.GiB)
			td := newTDE(t, db)
			var want [sqlparse.NumClasses]int
			var texts []string
			for i := 0; i < 5; i++ {
				if _, err := db.RunWindow(recorder{gen, &texts}, 5*time.Minute); err != nil {
					t.Fatal(err)
				}
				td.Tick()
				for _, sql := range newest(td, texts) {
					want[sqlparse.TemplateOf(sql).Class]++
				}
			}
			if td.classes != want {
				t.Fatalf("log ingest histogram %v, text ingest histogram %v", td.classes, want)
			}
		})
	}
}

// TestTickDoesNotTemplate: no tick templates SQL, the first one
// included, though every template it ingests there is new to it.
func TestTickDoesNotTemplate(t *testing.T) {
	db := newEngine(t, knobs.Postgres, 21*workload.GiB)
	td := newTDE(t, db)
	gen := workload.NewProduction()
	for i := 0; i < 8; i++ {
		if _, err := db.RunWindow(gen, 5*time.Minute); err != nil {
			t.Fatal(err)
		}
		before := templateLookups()
		td.Tick()
		if after := templateLookups(); after != before {
			t.Fatalf("window %d: tick made %.0f template lookups", i, after-before)
		}
	}
	if td.classes == ([sqlparse.NumClasses]int{}) {
		t.Fatal("the ticks ingested no statement")
	}
}
