package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCatalogsDistinctAndNonEmpty(t *testing.T) {
	pg, my := PostgresCatalog(), MySQLCatalog()
	if pg.Len() < 20 || my.Len() < 20 {
		t.Fatalf("catalogues too small: %d / %d", pg.Len(), my.Len())
	}
	if pg.Def("xact_commit") == nil || my.Def("com_commit") == nil {
		t.Fatal("flagship metrics missing")
	}
	if pg.Def("com_commit") != nil {
		t.Fatal("mysql metric leaked into postgres catalogue")
	}
}

func TestCatalogFor(t *testing.T) {
	if _, err := CatalogFor("postgres"); err != nil {
		t.Fatal(err)
	}
	if _, err := CatalogFor("mysql"); err != nil {
		t.Fatal(err)
	}
	if _, err := CatalogFor("sqlite"); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

func TestDelta(t *testing.T) {
	before := Snapshot{"a": 10, "b": 5, "gone": 3}
	after := Snapshot{"a": 25, "b": 5, "new": 7}
	d := Delta(before, after)
	if d["a"] != 15 || d["b"] != 0 || d["new"] != 7 || d["gone"] != -3 {
		t.Fatalf("delta = %v", d)
	}
}

// TestCatalogDeltaMatchesDelta: Catalog.Delta holds exactly the names
// and bits metrics.Delta gives — names in either snapshot, −0 and a
// name only before included — and its Snapshot is that map.
func TestCatalogDeltaMatchesDelta(t *testing.T) {
	c := PostgresCatalog()
	negZero := math.Copysign(0, -1)
	before := Snapshot{"xact_commit": 10, "blks_read": 0, "iops": 3, "temp_files": negZero, "deadlocks": math.NaN()}
	after := Snapshot{"xact_commit": 25, "blks_hit": negZero, "iops": 3, "wal_bytes": 0, "deadlocks": 1}
	for _, pair := range [][2]Snapshot{{before, after}, {after, before}, {nil, after}, {before, nil}, {nil, nil}} {
		want := Delta(pair[0], pair[1])
		v := c.Delta(pair[0], pair[1])
		got := c.Snapshot(v)
		if len(got) != len(want) {
			t.Fatalf("Delta(%v, %v): %v, want %v", pair[0], pair[1], got, want)
		}
		for k, w := range want {
			i, _ := c.Index(k)
			if g, ok := got[k]; !ok || math.Float64bits(g) != math.Float64bits(w) || math.Float64bits(v.At(i)) != math.Float64bits(w) {
				t.Fatalf("Delta(%v, %v)[%s] = %v, want %v", pair[0], pair[1], k, g, w)
			}
		}
	}
	if v, err := c.FromSnapshot(Snapshot{"com_commit": 1}); err == nil || v.Vals != nil {
		t.Fatal("a metric outside the catalogue was accepted")
	}
}

func TestSnapshotClone(t *testing.T) {
	s := Snapshot{"x": 1}
	c := s.Clone()
	c["x"] = 2
	if s["x"] != 1 {
		t.Fatal("clone aliases original")
	}
}

func TestVectorOrderAndMissing(t *testing.T) {
	c := NewCatalog([]Def{{Name: "m1"}, {Name: "m2"}, {Name: "m3"}})
	v := c.Vector(Snapshot{"m3": 3, "m1": 1})
	if v[0] != 1 || v[1] != 0 || v[2] != 3 {
		t.Fatalf("vector = %v", v)
	}
}

func TestDecileBinsIntoRange(t *testing.T) {
	rows := [][]float64{{0, 100}, {5, 100}, {10, 100}}
	b := Decile(rows)
	if b[0][0] != 0 || b[2][0] != 9 {
		t.Fatalf("extremes not binned to 0/9: %v", b)
	}
	// Constant column maps to 0 everywhere.
	for i := range b {
		if b[i][1] != 0 {
			t.Fatalf("constant column binned to %g", b[i][1])
		}
	}
	if Decile(nil) != nil {
		t.Fatal("empty input should return nil")
	}
}

func TestDecileMonotone(t *testing.T) {
	rows := [][]float64{{1}, {2}, {3}, {4}, {10}}
	b := Decile(rows)
	for i := 1; i < len(b); i++ {
		if b[i][0] < b[i-1][0] {
			t.Fatalf("deciles not monotone: %v", b)
		}
	}
}

func TestPruneDropsConstantAndCorrelated(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 100
	rows := make([][]float64, n)
	for i := range rows {
		v := rng.NormFloat64()
		w := rng.NormFloat64()
		rows[i] = []float64{
			v,       // 0: signal
			2*v + 1, // 1: perfectly correlated with 0
			7,       // 2: constant
			w,       // 3: independent signal
		}
	}
	kept := Prune(rows, 1e-9, 0.95)
	if len(kept) != 2 || kept[0] != 0 || kept[1] != 3 {
		t.Fatalf("kept = %v, want [0 3]", kept)
	}
}

func TestPruneEmpty(t *testing.T) {
	if Prune(nil, 0, 0.9) != nil {
		t.Fatal("empty prune should return nil")
	}
}

func TestProject(t *testing.T) {
	v := Project([]float64{10, 20, 30, 40}, []int{3, 0})
	if v[0] != 40 || v[1] != 10 {
		t.Fatalf("project = %v", v)
	}
}

// Property: decile outputs are always integers in [0,9].
func TestDecileRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, p := 2+rng.Intn(20), 1+rng.Intn(6)
		rows := make([][]float64, n)
		for i := range rows {
			r := make([]float64, p)
			for j := range r {
				r[j] = rng.NormFloat64() * 100
			}
			rows[i] = r
		}
		for _, r := range Decile(rows) {
			for _, v := range r {
				if v < 0 || v > 9 || v != float64(int(v)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: pruned indices are unique, sorted and within range.
func TestPruneIndicesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, p := 5+rng.Intn(30), 1+rng.Intn(8)
		rows := make([][]float64, n)
		for i := range rows {
			r := make([]float64, p)
			for j := range r {
				r[j] = rng.NormFloat64()
			}
			rows[i] = r
		}
		kept := Prune(rows, 1e-9, 0.9)
		prev := -1
		for _, k := range kept {
			if k <= prev || k >= p {
				return false
			}
			prev = k
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestVectorMatchesDenseForm: a packed Vector reads as the dense form
// it was built from — one value per catalogue slot and a presence
// mask — for Has, At and Snapshot, bit for bit, over random vectors
// with −0, NaN, ±Inf, absent metrics, and all-zero and empty vectors.
func TestVectorMatchesDenseForm(t *testing.T) {
	c := PostgresCatalog()
	names := c.Names()
	rng := rand.New(rand.NewSource(3))
	odd := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
	for trial := 0; trial < 500; trial++ {
		dense := make([]float64, c.Len())
		var set uint64
		for i := range dense {
			switch mode := trial % 5; {
			case mode == 0 && trial%10 == 0: // empty
				continue
			case mode == 0: // all +0
				dense[i] = 0
			case rng.Intn(4) == 0: // absent
				continue
			case rng.Intn(2) == 0:
				dense[i] = odd[rng.Intn(len(odd))]
			default:
				dense[i] = rng.NormFloat64() * 1e9
			}
			set |= 1 << i
		}
		v := NewVector(dense, set)
		if v.Vals == nil {
			t.Fatalf("trial %d: a non-nil vector has nil Vals", trial)
		}
		want := Snapshot{}
		nonzero := 0
		for i, n := range names {
			present := set&(1<<i) != 0
			x := 0.0
			if present {
				x = dense[i]
				want[n] = x
				if math.Float64bits(x) != 0 {
					nonzero++
				}
			}
			if v.Has(i) != present || math.Float64bits(v.At(i)) != math.Float64bits(x) {
				t.Fatalf("trial %d slot %d: Has %v At %v, want %v %v", trial, i, v.Has(i), v.At(i), present, x)
			}
		}
		if len(v.Vals) != nonzero {
			t.Fatalf("trial %d: %d packed values, want the %d nonzero ones", trial, len(v.Vals), nonzero)
		}
		got := c.Snapshot(v)
		if got == nil || len(got) != len(want) {
			t.Fatalf("trial %d: Snapshot %v, want %v", trial, got, want)
		}
		for n, x := range want {
			if g, ok := got[n]; !ok || math.Float64bits(g) != math.Float64bits(x) {
				t.Fatalf("trial %d: Snapshot[%s] = %v, want %v", trial, n, g, x)
			}
		}
		back, err := c.FromSnapshot(got)
		if err != nil || back.Set != v.Set || back.NZ != v.NZ || len(back.Vals) != len(v.Vals) {
			t.Fatalf("trial %d: FromSnapshot(Snapshot(v)) = %+v, %v; want %+v", trial, back, err, v)
		}
	}
	if s := c.Snapshot(Vector{}); s != nil {
		t.Fatalf("the zero Vector's Snapshot is %v, want nil", s)
	}
}
