// Trace replay: record a workload trace from a generator (standing in
// for a customer's captured query log), replay it against two simulated
// PostgreSQL configurations, and print what the TDE's EXPLAIN surface
// sees — including the engine-native config files the DFA would ship.
//
//	go run ./examples/trace_replay
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"time"

	"autodbaas/internal/knobs"
	"autodbaas/internal/simdb"
	"autodbaas/internal/workload"
)

func main() {
	// 1. Record a trace: 2 000 queries of adulterated TPCC.
	var traceBuf bytes.Buffer
	src := workload.NewAdulteratedTPCC(21*workload.GiB, 3000, 0.2)
	if err := workload.RecordTrace(&traceBuf, src, rand.New(rand.NewSource(1)), 2000); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d bytes of JSON-lines trace\n\n", traceBuf.Len())

	// 2. Replay it against default and tuned configs.
	tr, err := workload.LoadTrace(bytes.NewReader(traceBuf.Bytes()), "customer-trace", 21*workload.GiB, 3000)
	if err != nil {
		log.Fatal(err)
	}
	tuned := knobs.Config{
		"work_mem":             512 * 1024 * 1024,
		"maintenance_work_mem": 1 << 30,
		"temp_buffers":         512 * 1024 * 1024,
	}
	for _, variant := range []struct {
		name string
		cfg  knobs.Config
	}{{"default", nil}, {"tuned", tuned}} {
		eng, err := simdb.NewEngine(simdb.Options{
			Engine:      knobs.Postgres,
			Resources:   simdb.Resources{MemoryBytes: 16 * workload.GiB, VCPU: 4, DiskIOPS: 6000, DiskSSD: true},
			DBSizeBytes: tr.DBSizeBytes(),
			Seed:        2,
		})
		if err != nil {
			log.Fatal(err)
		}
		if variant.cfg != nil {
			if err := eng.ApplyConfig(variant.cfg, simdb.ApplyReload); err != nil {
				log.Fatal(err)
			}
		}
		var spills float64
		var windows int
		replay := textByTemplate{Generator: tr, text: make(map[string]string)}
		for i := 0; i < 6; i++ {
			st, err := eng.RunWindow(replay, time.Minute)
			if err != nil {
				log.Fatal(err)
			}
			spills += st.SpillBytes
			windows++
		}
		fmt.Printf("== %s config: %.0f MB spilled over %d minutes ==\n",
			variant.name, spills/(1<<20), windows)
		// Show what EXPLAIN says about one heavy template from the log.
		// The log keeps template IDs, not text; the replay remembers a
		// statement of each template to print.
		for _, le := range eng.QueryLog(400) {
			plan, _, ok := eng.ExplainTemplate(le.TemplateID)
			if ok && plan.MemRequired > 50*(1<<20) {
				fmt.Printf("EXPLAIN %.60s...\n%s\n", replay.text[le.TemplateID], plan.Format())
				break
			}
		}
	}

	// 3. The config file the DFA would ship for the tuned variant.
	cat := knobs.PostgresCatalog()
	fmt.Println("== postgresql.conf fragment for the tuned knobs ==")
	fmt.Print(cat.RenderConf(tuned))
}

// textByTemplate replays a generator and remembers the text of the
// latest statement it handed out for each template.
type textByTemplate struct {
	workload.Generator
	text map[string]string
}

// SampleInto implements workload.Generator.
func (g textByTemplate) SampleInto(rng *rand.Rand, q *workload.Query) {
	g.Generator.SampleInto(rng, q)
	g.text[q.Template.ID] = q.Text()
}
