package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"autodbaas/internal/sqlparse"
)

func allGenerators() []Generator {
	return []Generator{
		NewTPCC(26*GiB, 3300),
		NewYCSB(20*GiB, 5000),
		NewWikipedia(12*GiB, 1000),
		NewTwitter(22*GiB, 10000),
		NewTPCH(24*GiB, 40),
		NewCHBench(24*GiB, 2000),
		NewProduction(),
		NewAdulteratedTPCC(21*GiB, 3000, 0.8),
	}
}

func TestGeneratorBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	at := time.Date(2021, 3, 23, 12, 0, 0, 0, time.UTC)
	for _, g := range allGenerators() {
		if g.Name() == "" {
			t.Fatal("empty generator name")
		}
		if g.DBSizeBytes() <= 0 {
			t.Fatalf("%s: non-positive DB size", g.Name())
		}
		if g.RequestRate(at) <= 0 {
			t.Fatalf("%s: non-positive request rate", g.Name())
		}
		for i := 0; i < 50; i++ {
			qq := g.Sample(rng)
			if qq.Text() == "" {
				t.Fatalf("%s: empty SQL", g.Name())
			}
			p := qq.Profile
			if p.MemDemand < 0 || p.MaintMem < 0 || p.TempBytes < 0 || p.ReadBytes < 0 || p.WriteBytes < 0 {
				t.Fatalf("%s: negative profile %+v", g.Name(), p)
			}
		}
	}
}

// The class a generator stamps on a query must match what the TDE's
// sqlparse pipeline infers from the same SQL text — otherwise the
// entropy histograms in the detector would disagree with the generator's
// intent.
func TestClassesAgreeWithSQLParse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, g := range allGenerators() {
		for i := 0; i < 200; i++ {
			qq := g.Sample(rng)
			want := sqlparse.Classify(sqlparse.Normalize(qq.Text()))
			if qq.Class != want {
				t.Fatalf("%s: query %q stamped %v but parses as %v", g.Name(), qq.Text(), qq.Class, want)
			}
		}
	}
}

func TestTPCCIsWriteHeavyWithSmallWorkMem(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := NewTPCC(26*GiB, 3300)
	var writes, total int
	var maxMem float64
	for i := 0; i < 2000; i++ {
		qq := g.Sample(rng)
		total++
		if qq.Profile.WriteBytes > 0 {
			writes++
		}
		if qq.Profile.MemDemand > maxMem {
			maxMem = qq.Profile.MemDemand
		}
	}
	if frac := float64(writes) / float64(total); frac < 0.75 {
		t.Fatalf("TPCC write fraction = %.2f, want ≥ 0.75", frac)
	}
	// Paper Fig. 2: TPCC working memory ≈ 0.5 MB — far below 4 MB default.
	if maxMem > 4*MiB {
		t.Fatalf("TPCC max work-mem demand = %.1f MiB, want ≤ 4 MiB", maxMem/MiB)
	}
}

func TestYCSBAndWikipediaUseNoWorkingMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, g := range []Generator{NewYCSB(20*GiB, 5000), NewWikipedia(12*GiB, 1000)} {
		for i := 0; i < 1000; i++ {
			if mem := g.Sample(rng).Profile.MemDemand; mem != 0 {
				t.Fatalf("%s: working memory demand %g, want 0 (paper Fig. 2)", g.Name(), mem)
			}
		}
	}
}

func TestTPCHDemandsLargeWorkingMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := NewTPCH(24*GiB, 40)
	var over100 int
	for i := 0; i < 500; i++ {
		if g.Sample(rng).Profile.MemDemand > 100*MiB {
			over100++
		}
	}
	if over100 < 100 {
		t.Fatalf("only %d/500 TPCH queries demand >100 MiB", over100)
	}
}

func TestAdulterationProbability(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := NewAdulteratedTPCC(21*GiB, 3000, 0.8)
	heavy := 0
	const n = 5000
	for i := 0; i < n; i++ {
		qq := g.Sample(rng)
		// Adulterants are exactly the queries with large memory or
		// maintenance or temp demand.
		if qq.Profile.MemDemand > 50*MiB || qq.Profile.MaintMem > 50*MiB || qq.Profile.TempBytes > 0 {
			heavy++
		}
	}
	frac := float64(heavy) / n
	if frac < 0.70 || frac > 0.90 {
		t.Fatalf("adulterant fraction = %.3f, want ≈ 0.8", frac)
	}
	if g.Name() != "tpcc-adulterated-80%" {
		t.Fatalf("name = %q", g.Name())
	}
}

func TestAdulterationZeroIsPlainTPCC(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := NewAdulteratedTPCC(21*GiB, 3000, 0)
	for i := 0; i < 1000; i++ {
		qq := g.Sample(rng)
		if qq.Profile.MemDemand > 4*MiB || qq.Profile.TempBytes > 0 {
			t.Fatalf("p=0 emitted adulterant %q", qq.Text())
		}
	}
}

func TestAdulteratedCoversAllThrottleClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := NewAdulteratedTPCC(21*GiB, 3000, 1.0)
	seen := map[sqlparse.Class]bool{}
	for i := 0; i < 2000; i++ {
		seen[g.Sample(rng).Class] = true
	}
	for _, cls := range []sqlparse.Class{sqlparse.ClassAggregate, sqlparse.ClassSort, sqlparse.ClassIndexDDL, sqlparse.ClassDelete, sqlparse.ClassTempTable} {
		if !seen[cls] {
			t.Fatalf("adulterant mix never produced class %v", cls)
		}
	}
}

func TestProductionMixDominatedByInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := NewProduction()
	var ins, total int
	for i := 0; i < 5000; i++ {
		if g.Sample(rng).Class == sqlparse.ClassInsert {
			ins++
		}
		total++
	}
	if frac := float64(ins) / float64(total); frac < 0.93 {
		t.Fatalf("production insert fraction = %.3f, want ≈ 0.973", frac)
	}
}

func TestProductionArrivalCurve(t *testing.T) {
	g := NewProduction()
	day := time.Date(2021, 3, 23, 0, 0, 0, 0, time.UTC)
	var integral float64 // queries over the day, minute steps
	peakRate, peakHour := 0.0, 0.0
	for m := 0; m < 24*60; m++ {
		at := day.Add(time.Duration(m) * time.Minute)
		r := g.RequestRate(at)
		if r < 0 {
			t.Fatalf("negative rate at %v", at)
		}
		integral += r * 60
		if r > peakRate {
			peakRate = r
			peakHour = float64(m) / 60
		}
	}
	// Paper: 42.13M queries/day on average; the curve should land within 20%.
	if integral < 0.8*42.13e6 || integral > 1.2*42.13e6 {
		t.Fatalf("daily volume = %.1fM, want ≈ 42.13M", integral/1e6)
	}
	// Peak must fall in the 8–11 AM microservice surge window.
	if peakHour < 8 || peakHour > 11 {
		t.Fatalf("peak at hour %.2f, want within [8, 11]", peakHour)
	}
	// Night load must be well below the peak.
	night := g.RequestRate(day.Add(3 * time.Hour))
	if night > peakRate/2 {
		t.Fatalf("night rate %.0f not well below peak %.0f", night, peakRate)
	}
}

func TestCHBenchMixesOLTPAndOLAP(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := NewCHBench(24*GiB, 2000)
	var heavy int
	const n = 5000
	for i := 0; i < n; i++ {
		if g.Sample(rng).Profile.MemDemand > 50*MiB {
			heavy++
		}
	}
	frac := float64(heavy) / n
	if frac < 0.02 || frac > 0.10 {
		t.Fatalf("CH-bench analytic fraction = %.3f, want ≈ 0.05", frac)
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range []string{"tpcc", "ycsb", "wikipedia", "twitter", "tpch", "chbench", "production"} {
		g, err := Registry(name)
		if err != nil {
			t.Fatalf("Registry(%s): %v", name, err)
		}
		if g.Name() != name {
			t.Fatalf("Registry(%s).Name() = %s", name, g.Name())
		}
	}
	if _, err := Registry("nope"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestFixedRateOverride(t *testing.T) {
	g := FixedRate{Generator: NewProduction(), Rate: 123}
	if got := g.RequestRate(time.Now()); got != 123 {
		t.Fatalf("rate = %g", got)
	}
	if g.Name() != "production" {
		t.Fatal("FixedRate must delegate Name")
	}
}

func TestWindowLength(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	qs := Window(NewYCSB(GiB, 100), rng, 17)
	if len(qs) != 17 {
		t.Fatalf("window length %d", len(qs))
	}
}

func TestSampleDeterministicForSeed(t *testing.T) {
	g := NewTwitter(22*GiB, 10000)
	a := Window(g, rand.New(rand.NewSource(99)), 20)
	b := Window(g, rand.New(rand.NewSource(99)), 20)
	for i := range a {
		if a[i].Text() != b[i].Text() {
			t.Fatalf("non-deterministic sampling at %d: %q vs %q", i, a[i].Text(), b[i].Text())
		}
	}
}

// templateTestGenerators is one generator of every kind, at the sizes
// the template and stream tests sample.
func templateTestGenerators() []Generator {
	return []Generator{
		NewTPCC(4*GiB, 500),
		NewYCSB(4*GiB, 500),
		NewWikipedia(4*GiB, 500),
		NewTwitter(4*GiB, 500),
		NewTPCH(4*GiB, 10),
		NewCHBench(4*GiB, 500),
		NewProduction(),
		NewAdulteratedTPCC(4*GiB, 500, 0.8),
	}
}

// TestGeneratorTemplatesMatchSQL enforces the litTpl contract: for every
// generator, a sampled query's precomputed Template must equal what the
// TDE's log pipeline would derive from its SQL text. A mismatch means a
// call site used litTpl on a format that interpolates identifiers.
func TestGeneratorTemplatesMatchSQL(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, g := range templateTestGenerators() {
		for i := 0; i < 2000; i++ {
			qq := g.Sample(rng)
			sql := qq.Text()
			want := sqlparse.TemplateOf(sql)
			if qq.Template != want {
				t.Fatalf("%s: precomputed template diverges for %q:\n  have %+v\n  want %+v", g.Name(), sql, qq.Template, want)
			}
			if qq.Class != want.Class {
				t.Fatalf("%s: class %v != template class %v for %q", g.Name(), qq.Class, want.Class, sql)
			}
		}
	}
	// Random draws barely reach the rarer identifier sites (Production's
	// dashboard and join sites carry 0.2% and 0.07% of its weight), so
	// check every entry of every identifier table directly.
	p, y, a := NewProduction(), NewYCSB(4*GiB, 500), NewAdulteratedTPCC(4*GiB, 500, 0.8)
	for _, site := range []struct {
		name string
		s    identSite
		n    int
	}{
		{"production insert", p.insert, ProductionTables},
		{"production lookup", p.lookup, ProductionTables},
		{"production dashboard", p.dashboard, ProductionTables},
		{"production join", p.join, ProductionTables},
		{"production purge", p.purge, ProductionTables},
		{"ycsb update", y.update, ycsbFields},
		{"adulterated create index", a.createIdx, adulterantIdents},
		{"adulterated drop index", a.dropIdx, adulterantIdents},
		{"adulterated scratch table", a.scratch, adulterantIdents},
	} {
		name, s := site.name, site.s
		if len(s.tpls) != site.n {
			t.Fatalf("%s: %d template slots, want %d", name, len(s.tpls), site.n)
		}
		args := make([]int64, len(s.sql.verbs))
		for i := range s.tpls {
			have := s.tpl(int64(i))
			args[0] = int64(i)
			for k := 1; k < len(args); k++ {
				args[k] = rng.Int63()
			}
			sql := s.sql.render(args...)
			if want := sqlparse.TemplateOf(sql); have != want {
				t.Fatalf("%s: template %d diverges for %q:\n  have %+v\n  want %+v", name, i, sql, have, want)
			}
		}
	}
}

// Sample allocates nothing: a statement carries its compiled format,
// drawn arguments and template, and no text is rendered. An identifier
// site allocates only on an identifier's first draw, which the warm-up
// makes rare.
func TestGeneratorSampleAllocs(t *testing.T) {
	for _, g := range templateTestGenerators() {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 100_000; i++ {
			g.Sample(rng)
		}
		if n := testing.AllocsPerRun(1000, func() { g.Sample(rng) }); n > 0 {
			t.Errorf("%s: Sample allocates %.0f objects, want none", g.Name(), n)
		}
	}
}

func BenchmarkGeneratorSample(b *testing.B) {
	for _, g := range templateTestGenerators() {
		b.Run(g.Name(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.Sample(rng)
			}
		})
	}
}

// streamDigests is the SHA-256 of each generator's SQL text (Text) and
// Template.ID stream over 5,000 samples from seed 41. Any change to a format's text
// or to the order of rng draws moves it.
var streamDigests = map[string]string{
	"tpcc":                 "7e861e2db68fa3d793a0e5e68deaaa8e91bfa1153bb8785b991e955e7a156889",
	"ycsb":                 "29a635fa4d4fb07e00d206c1e77790f2e6e49807ba00d58b9058be95170ea245",
	"wikipedia":            "6fdb39faad70829e8d9db39c3e264eaa9db4ec266dde4f77e29207c0fd0925a2",
	"twitter":              "e6a1d2b040b74b769598b80c986bcfd251710ce47b7eaa255c7bf0eba07d16f8",
	"tpch":                 "2bfc25b885a746849d94ad9c582653e0f68a699db30bb85e164aed7be100c01f",
	"chbench":              "144bfd080b6c489985b0f77afc4bfb830867d41ae20d6c756cc18b2dca98e1e8",
	"production":           "2ce882438616c1d66883a1014318b1bac84b5a8b75f405f1edeca6fae49085d6",
	"tpcc-adulterated-80%": "cc9380e8a8defd128051a57674f07f6ee62756bbb911a9f325942bb1e1c1e560",
}

// TestGeneratorSQLStreamUnchanged pins every generator's output byte for
// byte: the SQL text, its template ID and the rng draw order behind
// them. Fleet fingerprints see the stream only through its effects.
func TestGeneratorSQLStreamUnchanged(t *testing.T) {
	for _, g := range templateTestGenerators() {
		rng := rand.New(rand.NewSource(41))
		h := sha256.New()
		for i := 0; i < 5000; i++ {
			qq := g.Sample(rng)
			io.WriteString(h, qq.Text())
			h.Write([]byte{0})
			io.WriteString(h, qq.Template.ID)
			h.Write([]byte{0})
		}
		if got, want := hex.EncodeToString(h.Sum(nil)), streamDigests[g.Name()]; got != want {
			t.Errorf("%s: stream digest %s, want %s", g.Name(), got, want)
		}
	}
}

// TestConcurrentSamplesShareFormats: parallel window workers sample one
// generator, each with its own rng, and their statements share the
// generator's compiled formats. Rendering them from several goroutines
// at once gives every goroutine the stream a lone sampler gets.
func TestConcurrentSamplesShareFormats(t *testing.T) {
	const workers, n = 4, 500
	for _, g := range templateTestGenerators() {
		stream := func() []string {
			rng := rand.New(rand.NewSource(43))
			qs := Window(g, rng, n)
			out := make([]string, n)
			for i, qq := range qs {
				out[i] = qq.Text()
			}
			return out
		}
		want := stream()
		got := make([][]string, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				got[w] = stream()
			}(w)
		}
		wg.Wait()
		for w := range got {
			if !slices.Equal(got[w], want) {
				t.Fatalf("%s: goroutine %d rendered a different stream", g.Name(), w)
			}
		}
	}
}
