package simdb

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"autodbaas/internal/knobs"
	"autodbaas/internal/workload"
)

// referenceFlatKnobs is the flattening the engine did before its
// field mapping moved into flatField: one map read per field.
func referenceFlatKnobs(e *Engine, cfg knobs.Config) flatKnobs {
	return flatKnobs{
		workMem:  cfg["work_mem"],
		maintMem: cfg["maintenance_work_mem"],
		tempBuf:  cfg["temp_buffers"],
		sortBuf:  cfg["sort_buffer_size"],
		joinBuf:  cfg["join_buffer_size"],
		keyBuf:   cfg["key_buffer_size"],
		tmpTable: cfg["tmp_table_size"],

		randomPageCost:    cfg["random_page_cost"],
		seqPageCost:       cfg["seq_page_cost"],
		cpuTupleCost:      cfg["cpu_tuple_cost"],
		effectiveCacheSiz: cfg["effective_cache_size"],
		maxParPerGather:   cfg["max_parallel_workers_per_gather"],
		eqRangeDiveLimit:  cfg["eq_range_index_dive_limit"],

		effectiveIOConc:      cfg["effective_io_concurrency"],
		maxWorkerProcesses:   cfg["max_worker_processes"],
		innodbThreadConcurr:  cfg["innodb_thread_concurrency"],
		innodbMaxDirtyPct:    cfg["innodb_max_dirty_pages_pct"],
		innodbIOCapacity:     cfg["innodb_io_capacity"],
		innodbLRUScanDepth:   cfg["innodb_lru_scan_depth"],
		innodbLogFileSize:    cfg["innodb_log_file_size"],
		bgwriterDelay:        cfg["bgwriter_delay"],
		bgwriterLRUMaxpages:  cfg["bgwriter_lru_maxpages"],
		checkpointTimeout:    cfg["checkpoint_timeout"],
		maxWALSize:           cfg["max_wal_size"],
		ckptCompletionTarget: cfg["checkpoint_completion_target"],

		bufferPool: cfg[e.kcat.BufferPoolKnob()],
	}
}

// referenceOverlay is the overlay as it was before it patched the
// memoised view: every override is merged into a clone of the active
// config, which is flattened and handed to the hit-ratio model.
func referenceOverlay(e *Engine, override knobs.Config) (flatKnobs, float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cfg := e.cfg.Clone()
	for k, v := range override {
		cfg[k] = v
	}
	return referenceFlatKnobs(e, cfg), e.hitRatioLocked(cfg)
}

// referenceRunMs is HypotheticalRunTemplatesMs over referenceOverlay.
func referenceRunMs(e *Engine, override knobs.Config, ids []string) (float64, int) {
	fk, hit := referenceOverlay(e, override)
	e.mu.Lock()
	defer e.mu.Unlock()
	var total float64
	var n int
	for _, id := range ids {
		p, ok := e.profiles[id]
		if !ok {
			continue
		}
		plan := e.planWith(&fk, p.Class, &p.Profile)
		ms, _ := e.serviceTimeMs(&fk, p.Class, &p.Profile, hit, &plan)
		total += ms
		n++
	}
	return total, n
}

// overlayCases is every override the equivalence test prices: none,
// every knob of both catalogues alone at its min, default and max, an
// unknown knob, and seeded multi-knob overrides over kcat with and
// without a memory-class knob.
func overlayCases(t *testing.T, kcat *knobs.Catalog) []knobs.Config {
	t.Helper()
	cases := []knobs.Config{nil, {}, {"no_such_knob": 42}}
	for _, eng := range []knobs.Engine{knobs.Postgres, knobs.MySQL} {
		cat, err := knobs.CatalogFor(eng)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range cat.Names() {
			d := cat.Def(name)
			for _, v := range []float64{d.Min, d.Default, d.Max} {
				cases = append(cases, knobs.Config{name: v})
			}
		}
	}
	var memory, other []string
	for _, name := range kcat.Names() {
		if kcat.Def(name).Class == knobs.Memory {
			memory = append(memory, name)
		} else {
			other = append(other, name)
		}
	}
	draw := func(rng *rand.Rand, cfg knobs.Config, names []string) {
		d := kcat.Def(names[rng.Intn(len(names))])
		cfg[d.Name] = d.Min + rng.Float64()*(d.Max-d.Min)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		cfg := knobs.Config{}
		for k := 1 + rng.Intn(4); len(cfg) < k; {
			draw(rng, cfg, other)
		}
		if i%2 == 0 {
			draw(rng, cfg, memory)
		}
		cases = append(cases, cfg)
	}
	return cases
}

// TestOverlayPatchMatchesClone applies every overlay case with the
// engine's overlay and with the clone-and-flatten reference, at the
// default config and at a tuned one, on both engines. The flat views
// (including fields only RunWindow reads) and hit ratios must be equal,
// and HypotheticalRunTemplatesMs must match the reference pricing to
// the bit, with the same priced count.
func TestOverlayPatchMatchesClone(t *testing.T) {
	tuned := map[knobs.Engine]knobs.Config{
		knobs.Postgres: {"work_mem": 64 * 1024 * 1024, "random_page_cost": 1.5, "effective_io_concurrency": 16, "max_parallel_workers_per_gather": 2},
		knobs.MySQL:    {"sort_buffer_size": 8 * 1024 * 1024, "innodb_thread_concurrency": 16, "eq_range_index_dive_limit": 200},
	}
	gens := []workload.Generator{
		workload.NewTPCH(24*workload.GiB, 40),
		workload.NewTPCC(24*workload.GiB, 3000),
		workload.NewTwitter(24*workload.GiB, 8000),
	}
	for _, eng := range []knobs.Engine{knobs.Postgres, knobs.MySQL} {
		t.Run(string(eng), func(t *testing.T) {
			e, err := NewEngine(Options{Engine: eng, Resources: m4Large(), DBSizeBytes: 24 * workload.GiB, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 6; i++ {
				if _, err := e.RunWindow(gens[i%len(gens)], 5*time.Minute); err != nil {
					t.Fatal(err)
				}
			}
			ids := append(TemplateIDs(e.QueryLog(DefaultQueryLogSize)), "never-executed")
			cases := overlayCases(t, e.KnobCatalog())
			for _, live := range []knobs.Config{nil, tuned[eng]} {
				if live != nil {
					if err := e.ApplyConfig(live, ApplyReload); err != nil {
						t.Fatal(err)
					}
				}
				for _, override := range cases {
					e.mu.Lock()
					fk, hit := e.overlayLocked(override)
					e.mu.Unlock()
					wantFk, wantHit := referenceOverlay(e, override)
					if fk != wantFk || math.Float64bits(hit) != math.Float64bits(wantHit) {
						t.Fatalf("live %v, override %v: view %+v, hit %v; reference %+v, hit %v",
							live, override, fk, hit, wantFk, wantHit)
					}
					got, n := e.HypotheticalRunTemplatesMs(override, ids)
					want, wantN := referenceRunMs(e, override, ids)
					if math.Float64bits(got) != math.Float64bits(want) || n != wantN {
						t.Fatalf("live %v, override %v: got %v over %d statements, reference %v over %d",
							live, override, got, n, want, wantN)
					}
				}
			}
			if _, n := e.HypotheticalRunTemplatesMs(nil, ids); n == 0 {
				t.Fatal("no statement was priced: the comparison proved nothing")
			}
		})
	}
}

// TestOverlayWithoutMemoryKnobsCopiesNothing: an override that names no
// memory-class knob patches the memoised view and allocates nothing.
func TestOverlayWithoutMemoryKnobsCopiesNothing(t *testing.T) {
	e := newPG(t, m4Large(), 24*workload.GiB)
	if _, err := e.RunWindow(workload.NewTPCH(24*workload.GiB, 40), 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	ids := TemplateIDs(e.QueryLog(64))
	override := knobs.Config{"random_page_cost": 2, "effective_io_concurrency": 8}
	if allocs := testing.AllocsPerRun(20, func() { e.HypotheticalRunTemplatesMs(override, ids) }); allocs != 0 {
		t.Fatalf("an overlay of planner knobs made %v allocations, want 0", allocs)
	}
}

// TestHitRatioReadsOnlyMemoryKnobs pins what the overlay's patch path
// relies on: MemoryFootprint does not move when any knob outside the
// memory class moves.
func TestHitRatioReadsOnlyMemoryKnobs(t *testing.T) {
	for _, eng := range []knobs.Engine{knobs.Postgres, knobs.MySQL} {
		cat, err := knobs.CatalogFor(eng)
		if err != nil {
			t.Fatal(err)
		}
		budget := knobs.MemoryBudget{TotalBytes: 8 * workload.GiB, WorkMemSessions: 4}
		base := cat.DefaultConfig()
		want := cat.MemoryFootprint(base, budget)
		for _, name := range cat.Names() {
			d := cat.Def(name)
			if d.Class == knobs.Memory {
				continue
			}
			for _, v := range []float64{d.Min, d.Max} {
				cfg := base.Clone()
				cfg[name] = v
				if got := cat.MemoryFootprint(cfg, budget); got != want {
					t.Fatalf("%s: footprint moved with %s = %g", eng, name, v)
				}
			}
		}
	}
}
