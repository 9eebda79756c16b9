package knobs

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestCatalogsHaveAllClasses(t *testing.T) {
	for _, cat := range []*Catalog{PostgresCatalog(), MySQLCatalog()} {
		for _, cls := range Classes() {
			if len(cat.NamesByClass(cls)) == 0 {
				t.Fatalf("%s catalogue has no %s knobs", cat.Engine, cls)
			}
		}
	}
}

func TestCatalogFor(t *testing.T) {
	if c, err := CatalogFor(Postgres); err != nil || c.Engine != Postgres {
		t.Fatalf("CatalogFor(postgres) = %v, %v", c, err)
	}
	if c, err := CatalogFor(MySQL); err != nil || c.Engine != MySQL {
		t.Fatalf("CatalogFor(mysql) = %v, %v", c, err)
	}
	if _, err := CatalogFor("oracle"); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

func TestDefaultConfigValidates(t *testing.T) {
	for _, cat := range []*Catalog{PostgresCatalog(), MySQLCatalog()} {
		if err := cat.Validate(cat.DefaultConfig()); err != nil {
			t.Fatalf("%s defaults invalid: %v", cat.Engine, err)
		}
	}
}

func TestValidateRejectsUnknownAndOutOfBounds(t *testing.T) {
	cat := PostgresCatalog()
	if err := cat.Validate(Config{"bogus": 1}); !errors.Is(err, ErrUnknownKnob) {
		t.Fatalf("unknown knob err = %v", err)
	}
	if err := cat.Validate(Config{"work_mem": -5}); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("oob err = %v", err)
	}
	if err := cat.Validate(Config{"work_mem": math.NaN()}); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("NaN err = %v", err)
	}
}

func TestClamp(t *testing.T) {
	cat := PostgresCatalog()
	got := cat.Clamp(Config{"work_mem": -1, "random_page_cost": 99, "bogus": 3, "checkpoint_timeout": math.NaN()})
	if got["work_mem"] != cat.Def("work_mem").Min {
		t.Fatalf("work_mem clamped to %g", got["work_mem"])
	}
	if got["random_page_cost"] != cat.Def("random_page_cost").Max {
		t.Fatalf("random_page_cost clamped to %g", got["random_page_cost"])
	}
	if _, ok := got["bogus"]; ok {
		t.Fatal("unknown knob survived Clamp")
	}
	if got["checkpoint_timeout"] != cat.Def("checkpoint_timeout").Default {
		t.Fatalf("NaN clamped to %g, want default", got["checkpoint_timeout"])
	}
}

func TestTunableVsRestartPartition(t *testing.T) {
	for _, cat := range []*Catalog{PostgresCatalog(), MySQLCatalog()} {
		tun, res := cat.TunableNames(), cat.RestartNames()
		if len(tun)+len(res) != len(cat.Names()) {
			t.Fatalf("%s: partition sizes %d+%d != %d", cat.Engine, len(tun), len(res), len(cat.Names()))
		}
		for _, n := range res {
			if !cat.Def(n).Restart {
				t.Fatalf("%s listed as restart but is tunable", n)
			}
		}
		bp := cat.BufferPoolKnob()
		if !cat.Def(bp).Restart {
			t.Fatalf("buffer-pool knob %s must require restart", bp)
		}
		if cat.Def(bp).Class != Memory {
			t.Fatalf("buffer-pool knob %s must be a memory knob", bp)
		}
	}
}

func TestMemoryBudgetEnforced(t *testing.T) {
	cat := PostgresCatalog()
	budget := MemoryBudget{TotalBytes: 2 * 1024 * 1024 * 1024, WorkMemSessions: 10}
	cfg := cat.DefaultConfig()
	if err := cat.CheckMemoryBudget(cfg, budget); err != nil {
		t.Fatalf("defaults should fit 2GB: %v", err)
	}
	cfg["shared_buffers"] = 4 * 1024 * 1024 * 1024
	if err := cat.CheckMemoryBudget(cfg, budget); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("4GB buffer in 2GB instance err = %v", err)
	}
}

func TestFitMemoryBudgetShrinksWorkingAreas(t *testing.T) {
	cat := PostgresCatalog()
	budget := MemoryBudget{TotalBytes: 1 * 1024 * 1024 * 1024, WorkMemSessions: 20}
	cfg := cat.DefaultConfig()
	cfg["work_mem"] = 512 * 1024 * 1024 // 20 sessions × 512MB ≫ 1GB
	fit := cat.FitMemoryBudget(cfg, budget)
	if err := cat.CheckMemoryBudget(fit, budget); err != nil {
		t.Fatalf("FitMemoryBudget result still over budget: %v", err)
	}
	if fit["shared_buffers"] != cfg["shared_buffers"] {
		t.Fatal("FitMemoryBudget must not touch the buffer pool knob")
	}
	if !(fit["work_mem"] < cfg["work_mem"]) {
		t.Fatal("work_mem not shrunk")
	}
}

func TestNormalizeDenormalizeRoundTrip(t *testing.T) {
	for _, cat := range []*Catalog{PostgresCatalog(), MySQLCatalog()} {
		names := cat.Names()
		cfg := cat.DefaultConfig()
		vec := cat.Normalize(cfg, names)
		for i, u := range vec {
			if u < 0 || u > 1 {
				t.Fatalf("%s: normalized %s = %g outside [0,1]", cat.Engine, names[i], u)
			}
		}
		back := cat.Denormalize(vec, names)
		for _, n := range names {
			d := cat.Def(n)
			rel := math.Abs(back[n]-cfg[n]) / math.Max(1, math.Abs(cfg[n]))
			// Count/ms knobs round; allow one unit of slack.
			if rel > 0.01 && math.Abs(back[n]-cfg[n]) > 1 {
				t.Fatalf("%s: round trip %s: %g → %g (def %+v)", cat.Engine, n, cfg[n], back[n], d)
			}
		}
	}
}

func TestDenormalizeClampsInput(t *testing.T) {
	cat := PostgresCatalog()
	names := []string{"work_mem"}
	lo := cat.Denormalize([]float64{-3}, names)
	hi := cat.Denormalize([]float64{9}, names)
	if lo["work_mem"] != cat.Def("work_mem").Min {
		t.Fatalf("u<0 gave %g", lo["work_mem"])
	}
	if hi["work_mem"] != cat.Def("work_mem").Max {
		t.Fatalf("u>1 gave %g", hi["work_mem"])
	}
}

func TestConfigCloneAndEqual(t *testing.T) {
	a := Config{"x": 1, "y": 2}
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b["x"] = 3
	if a.Equal(b) || a["x"] != 1 {
		t.Fatal("clone not independent")
	}
	if a.Equal(Config{"x": 1}) {
		t.Fatal("different sizes equal")
	}
	if a.Equal(Config{"x": 1, "z": 2}) {
		t.Fatal("different keys equal")
	}
}

func TestClassString(t *testing.T) {
	if Memory.String() != "memory" || BgWriter.String() != "bgwriter" || AsyncPlanner.String() != "async/planner" {
		t.Fatal("class strings wrong")
	}
	if Class(9).String() == "" {
		t.Fatal("unknown class should still print")
	}
}

// Property: Denormalize always yields a config that validates, for any
// input vector.
func TestDenormalizeAlwaysValidProperty(t *testing.T) {
	cat := PostgresCatalog()
	names := cat.Names()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vec := make([]float64, len(names))
		for i := range vec {
			vec[i] = rng.Float64()*4 - 2 // deliberately outside [0,1] sometimes
		}
		cfg := cat.Denormalize(vec, names)
		return cat.Validate(cfg) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Normalize is monotone in the knob value.
func TestNormalizeMonotoneProperty(t *testing.T) {
	cat := MySQLCatalog()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		names := cat.Names()
		n := names[rng.Intn(len(names))]
		d := cat.Def(n)
		a := d.Min + rng.Float64()*(d.Max-d.Min)
		b := d.Min + rng.Float64()*(d.Max-d.Min)
		if a > b {
			a, b = b, a
		}
		ua := cat.Normalize(Config{n: a}, []string{n})[0]
		ub := cat.Normalize(Config{n: b}, []string{n})[0]
		return ua <= ub+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestNormalizeVectorIntoOverwritesDirtyRow: NormalizeVectorInto gives
// Normalize's values — an absent knob at its default, 0 for a name the
// catalogue lacks — into every slot of a dirty row, without
// allocating.
func TestNormalizeVectorIntoOverwritesDirtyRow(t *testing.T) {
	cat := PostgresCatalog()
	names := []string{"work_mem", "no_such_knob", "shared_buffers", "cpu_tuple_cost"}
	cfg := Config{"work_mem": 64 * 1024 * 1024, "cpu_tuple_cost": 0.5}
	want := cat.Normalize(cfg, names)
	v, err := cat.FromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	idx := cat.AppendIndices(nil, names)
	dst := []float64{42, 42, 42, 42}
	cat.NormalizeVectorInto(dst, v, idx)
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("slot %d (%s) = %g, want %g", i, names[i], dst[i], want[i])
		}
	}
	if dst[1] != 0 || idx[1] != -1 {
		t.Fatalf("unknown knob at position %d normalized to %g, want -1 and 0", idx[1], dst[1])
	}
	if allocs := testing.AllocsPerRun(10, func() { cat.NormalizeVectorInto(dst, v, idx) }); allocs > 0 {
		t.Fatalf("NormalizeVectorInto allocates %.1f objects/op, want 0", allocs)
	}
}

// TestVectorRoundTrip: a config goes to a Vector and back unchanged,
// nil stays nil and empty stays empty, and a knob the catalogue lacks
// fails, naming it.
func TestVectorRoundTrip(t *testing.T) {
	cat := MySQLCatalog()
	for _, cfg := range []Config{nil, {}, {"sort_buffer_size": 1 << 20}, cat.DefaultConfig()} {
		v, err := cat.FromConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		back := cat.Config(v)
		if (back == nil) != (cfg == nil) || !back.Equal(cfg) {
			t.Fatalf("%v came back as %v", cfg, back)
		}
	}
	if _, err := cat.FromConfig(Config{"work_mem": 1}); !errors.Is(err, ErrUnknownKnob) || !strings.Contains(err.Error(), "work_mem") {
		t.Fatalf("unknown knob: err = %v", err)
	}
}
