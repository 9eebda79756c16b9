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

// referenceRunMs is HypotheticalRunTemplatesMs over referenceOverlay,
// pricing every entry of ids afresh, repeats included.
func referenceRunMs(e *Engine, override knobs.Config, ids []string) (float64, int) {
	fk, hit := referenceOverlay(e, override)
	e.mu.Lock()
	defer e.mu.Unlock()
	var total float64
	var n int
	for _, id := range ids {
		i, ok := e.profiles[id]
		if !ok {
			continue
		}
		p := &e.profileTab[i]
		var plan Plan
		e.planWith(&fk, p.Class, &p.Profile, &plan)
		ms, _ := e.serviceTimeMs(p.Class, &p.Profile, hit, e.ioOverlapFactor(&fk), &plan)
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

// TestHypotheticalPricingMatchesReference: HypotheticalRunTemplatesMs
// prices each distinct ID once per call and adds the kept price for its
// repeats, and HypotheticalRunTemplatesMsEach does so per override over
// one lookup of the IDs. Over ID lists with repeats and with IDs that
// have no profile, under no override, a patched one-knob override and a
// clone-path memory-knob override, in alternation and across windows
// that move the remembered profiles, every total must equal to the bit,
// with the same count, a plain loop that prices every entry afresh.
// Once warm, a call that takes no clone allocates nothing.
func TestHypotheticalPricingMatchesReference(t *testing.T) {
	overrides := map[knobs.Engine][2]knobs.Config{
		knobs.Postgres: {{"random_page_cost": 2.5}, {"work_mem": 256 * 1024 * 1024}},
		knobs.MySQL:    {{"eq_range_index_dive_limit": 40}, {"sort_buffer_size": 16 * 1024 * 1024}},
	}
	gens := []workload.Generator{
		workload.NewTPCC(24*workload.GiB, 3000),
		workload.NewTPCH(24*workload.GiB, 40),
		workload.NewProduction(),
	}
	for _, eng := range []knobs.Engine{knobs.Postgres, knobs.MySQL} {
		t.Run(string(eng), func(t *testing.T) {
			e, err := NewEngine(Options{Engine: eng, Resources: m4Large(), DBSizeBytes: 24 * workload.GiB, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			patched, cloned := overrides[eng][0], overrides[eng][1]
			for k := range patched {
				if e.readByHitRatio(k) {
					t.Fatalf("%s takes the clone path; want a patched override", k)
				}
			}
			for k := range cloned {
				if !e.readByHitRatio(k) {
					t.Fatalf("%s takes the patch path; want a clone-path override", k)
				}
			}
			var logged []string
			for w := 0; w < 9; w++ {
				if _, err := e.RunWindow(gens[w%len(gens)], 5*time.Minute); err != nil {
					t.Fatal(err)
				}
				logged = TemplateIDs(e.QueryLog(64))
				first := logged[0]
				lists := [][]string{
					nil,
					logged,
					append([]string{"never-executed", first, "never-executed"}, logged...),
					{first, first, first, "never-executed", first},
					{"never-executed", "never-executed"},
				}
				overrides := []knobs.Config{nil, patched, cloned, nil}
				totals := make([]float64, len(overrides))
				for _, ids := range lists {
					for _, override := range overrides {
						got, n := e.HypotheticalRunTemplatesMs(override, ids)
						want, wantN := referenceRunMs(e, override, ids)
						if math.Float64bits(got) != math.Float64bits(want) || n != wantN {
							t.Fatalf("window %d, override %v, %d ids: got %v over %d statements, reference %v over %d",
								w, override, len(ids), got, n, want, wantN)
						}
					}
					n := e.HypotheticalRunTemplatesMsEach(overrides, ids, totals)
					for i, override := range overrides {
						want, wantN := referenceRunMs(e, override, ids)
						if math.Float64bits(totals[i]) != math.Float64bits(want) || n != wantN {
							t.Fatalf("window %d, batched override %d %v, %d ids: got %v over %d statements, reference %v over %d",
								w, i, override, len(ids), totals[i], n, want, wantN)
						}
					}
				}
			}
			if _, n := e.HypotheticalRunTemplatesMs(nil, logged); n != len(logged) {
				t.Fatalf("priced %d of %d logged statements", n, len(logged))
			}
			for _, override := range []knobs.Config{nil, patched} {
				if allocs := testing.AllocsPerRun(20, func() { e.HypotheticalRunTemplatesMs(override, logged) }); allocs != 0 {
					t.Fatalf("override %v: a warm call made %v allocations, want 0", override, allocs)
				}
			}
			batch, totals := []knobs.Config{nil, patched, patched}, make([]float64, 3)
			if allocs := testing.AllocsPerRun(20, func() { e.HypotheticalRunTemplatesMsEach(batch, logged, totals) }); allocs != 0 {
				t.Fatalf("a warm batched call made %v allocations, want 0", allocs)
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
