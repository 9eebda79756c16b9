package repository

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"autodbaas/internal/bincodec"
	"autodbaas/internal/knobs"
	"autodbaas/internal/metrics"
	"autodbaas/internal/tuner"
)

// legacyLines writes samples as JSON lines, the store section Save
// wrote before the binary codec; LoadQuiet now rejects it.
func legacyLines(t testing.TB, samples []tuner.Sample) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range samples {
		if err := enc.Encode(s); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// mapSample is a sample in map form, the shape the store section's
// encoder read before samples became vectors.
type mapSample struct {
	tuner.Sample
	config  knobs.Config
	metrics metrics.Snapshot
}

// vectorOf returns m's sample with its maps as vectors.
func vectorOf(t testing.TB, m mapSample) tuner.Sample {
	t.Helper()
	s := m.Sample
	if err := s.SetMaps(m.config, m.metrics); err != nil {
		t.Fatal(err)
	}
	return s
}

// configOf returns a sample's config in map form.
func configOf(t testing.TB, s tuner.Sample) knobs.Config {
	t.Helper()
	cfg, _, err := s.Maps()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// codecMapSamples covers every shape the codec distinguishes: both
// engines, nil, empty, dense, sparse and full maps, zoned and zero
// times, and samples of one workload spread over engines.
func codecMapSamples() []mapSample {
	at := time.Date(2021, 3, 23, 4, 5, 6, 789, time.UTC)
	pgKnobs, myKnobs := knobs.PostgresCatalog().DefaultConfig(), knobs.MySQLCatalog().DefaultConfig()
	pgMetrics := metrics.Snapshot{}
	for i, n := range metrics.PostgresCatalog().Names() {
		pgMetrics[n] = float64(i) * 1.5
	}
	return []mapSample{
		{tuner.Sample{WorkloadID: "tpcc", Engine: knobs.Postgres, Objective: 812.25, Quality: true, Window: 5 * time.Minute, At: at},
			knobs.Config{"work_mem": 4 << 20, "shared_buffers": 1 << 30},
			metrics.Snapshot{"xact_commit": 120, "blks_hit": 7.5}},
		{tuner.Sample{WorkloadID: "tpcc", Engine: knobs.Postgres, Objective: -1, Window: -time.Second, At: at.In(time.FixedZone("IST", 5*3600+1800))},
			knobs.Config{"work_mem": 8 << 20}, metrics.Snapshot{}},
		{tuner.Sample{WorkloadID: "tpcc", Engine: knobs.MySQL, Objective: 3},
			knobs.Config{"sort_buffer_size": 1 << 18}, nil},
		{tuner.Sample{WorkloadID: "ycsb", Engine: knobs.Postgres, At: at.In(time.FixedZone("", -7*3600))},
			knobs.Config{}, metrics.Snapshot{"blks_hit": 0}},
		{tuner.Sample{WorkloadID: "ycsb", Engine: knobs.MySQL, At: at.Add(time.Hour)},
			myKnobs, metrics.Snapshot{"iops": 2, "com_commit": 1}},
		{tuner.Sample{WorkloadID: "ycsb", Engine: knobs.Postgres, At: at.In(time.Local)}, nil, nil},
		// As many keys as the engine's first sample, but not the same
		// ones: the header must come from every sample's keys.
		{tuner.Sample{WorkloadID: "ycsb", Engine: knobs.Postgres},
			knobs.Config{"checkpoint_timeout": 300, "shared_buffers": 1 << 29, "work_mem": 1 << 20},
			metrics.Snapshot{"blks_hit": 2, "tup_fetched": 3, "xact_commit": 1}},
		{tuner.Sample{WorkloadID: "full", Engine: knobs.Postgres, Objective: 9, Window: time.Minute, At: at},
			pgKnobs, pgMetrics},
	}
}

func codecSamples(t testing.TB) []tuner.Sample {
	var out []tuner.Sample
	for _, m := range codecMapSamples() {
		out = append(out, vectorOf(t, m))
	}
	return out
}

// mapEncodeStore is the store section's encoder as it was over map-form
// samples: each engine's header is the keys its samples carry, in
// catalogue order, and values are looked up by name. It is the
// reference encodeStore must match byte for byte.
func mapEncodeStore(samples []mapSample) []byte {
	type header struct {
		engine           knobs.Engine
		knobs, metrics   []string
		knobSet, metrSet map[string]bool
	}
	var (
		engines   []*header
		engineIdx = make(map[knobs.Engine]int)
		workloads []string
		counts    []int
	)
	for _, s := range samples {
		e, ok := engineIdx[s.Engine]
		if !ok {
			e = len(engines)
			engineIdx[s.Engine] = e
			engines = append(engines, &header{engine: s.Engine, knobSet: map[string]bool{}, metrSet: map[string]bool{}})
		}
		for k := range s.config {
			engines[e].knobSet[k] = true
		}
		for k := range s.metrics {
			engines[e].metrSet[k] = true
		}
		if n := len(workloads); n == 0 || workloads[n-1] != s.WorkloadID {
			workloads = append(workloads, s.WorkloadID)
			counts = append(counts, 0)
		}
		counts[len(counts)-1]++
	}
	for _, h := range engines {
		kc, _ := knobs.CatalogFor(h.engine)
		mc, _ := metrics.CatalogFor(string(h.engine))
		h.knobs = bincodec.CatalogueOrder(h.knobSet, kc.Names())
		h.metrics = bincodec.CatalogueOrder(h.metrSet, mc.Names())
	}
	b := append([]byte(storeMagic), storeVersion)
	b = binary.AppendUvarint(b, uint64(len(engines)))
	for _, h := range engines {
		b = bincodec.AppendStrings(bincodec.AppendStrings(bincodec.AppendString(b, string(h.engine)), h.knobs), h.metrics)
	}
	b = binary.AppendUvarint(b, uint64(len(workloads)))
	for i, w := range workloads {
		b = binary.AppendUvarint(bincodec.AppendString(b, w), uint64(counts[i]))
	}
	for _, s := range samples {
		e := engineIdx[s.Engine]
		h := engines[e]
		var flags byte
		if s.Quality {
			flags |= flagQuality
		}
		flags |= bincodec.ValuesFlag(s.config, h.knobs, flagConfigNil, flagConfigSparse)
		flags |= bincodec.ValuesFlag(s.metrics, h.metrics, flagMetricsNil, flagMetricsSparse)
		_, offset := s.At.Zone()
		if offset != 0 {
			flags |= flagAtZoned
		}
		b = append(binary.AppendUvarint(b, uint64(e)), flags)
		b = bincodec.AppendValues(b, s.config, h.knobs, flags&flagConfigSparse != 0)
		b = bincodec.AppendValues(b, s.metrics, h.metrics, flags&flagMetricsSparse != 0)
		b = bincodec.AppendF64(b, s.Objective)
		b = binary.AppendVarint(b, int64(s.Window))
		b = bincodec.AppendTime(b, s.At, offset != 0)
	}
	return b
}

// TestStoreCodecMatchesMapEncoder: the vector encoder writes the bytes
// the map-keyed encoder wrote for the same samples — nil, empty, sparse
// and full — so the store section did not change.
func TestStoreCodecMatchesMapEncoder(t *testing.T) {
	maps := codecMapSamples()
	src := New()
	for _, m := range maps {
		src.Store().Add(vectorOf(t, m))
	}
	// Store.Range groups by workload in first-seen order; the reference
	// takes the same order.
	var grouped []mapSample
	for _, w := range src.Store().Workloads() {
		for _, m := range maps {
			if m.WorkloadID == w {
				grouped = append(grouped, m)
			}
		}
	}
	want := mapEncodeStore(grouped)
	if got := saved(t, src); !bytes.Equal(got, want) {
		t.Fatalf("store section differs from the map encoder's\n  got  %x\n  want %x", got, want)
	}
	for i, m := range grouped {
		one := New()
		one.Store().Add(vectorOf(t, m))
		if got, want := saved(t, one), mapEncodeStore(grouped[i:i+1]); !bytes.Equal(got, want) {
			t.Errorf("sample %s/%d: got %x, want %x", m.WorkloadID, i, got, want)
		}
	}
}

func storeOf(t testing.TB, section []byte) *Repository {
	t.Helper()
	r := New()
	if _, err := r.LoadQuiet(section); err != nil {
		t.Fatal(err)
	}
	return r
}

func saved(t testing.TB, r *Repository) []byte {
	t.Helper()
	b, err := r.Save()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// storedSamples copies out every sample of s, in store order.
func storedSamples(s *tuner.Store) []tuner.Sample {
	var out []tuner.Sample
	s.Range(func(sm *tuner.Sample) { out = append(out, *sm) })
	return out
}

// TestStoreCodecMatchesLegacy: the binary section restores exactly the
// store that a JSON round trip of each sample gives — maps nil or empty
// as they were, and every time in the location encoding/json gives
// it — and a restored store re-encodes to the same bytes.
func TestStoreCodecMatchesLegacy(t *testing.T) {
	src := New()
	for _, s := range codecSamples(t) {
		src.Store().Add(s)
	}
	section := saved(t, src)
	if !bytes.HasPrefix(section, []byte(storeMagic)) {
		t.Fatalf("Save wrote no binary magic: %q", section[:8])
	}
	binary := storeOf(t, section)
	legacy := New()
	dec := json.NewDecoder(bytes.NewReader(legacyLines(t, storedSamples(src.Store()))))
	for dec.More() {
		var s tuner.Sample
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		legacy.Store().Add(s)
	}
	if !reflect.DeepEqual(binary.Store(), legacy.Store()) {
		t.Fatalf("binary restore differs from the legacy restore\n  binary: %+v\n  legacy: %+v", storedSamples(binary.Store()), storedSamples(legacy.Store()))
	}
	if got := saved(t, binary); !bytes.Equal(got, section) {
		t.Fatal("a restored store re-encodes to different bytes")
	}
	// The UTC samples come back as they went in.
	for i, s := range src.Store().Samples("tpcc") {
		if _, off := s.At.Zone(); off == 0 && !reflect.DeepEqual(s, binary.Store().Samples("tpcc")[i]) {
			t.Errorf("tpcc sample %d: got %+v, want %+v", i, binary.Store().Samples("tpcc")[i], s)
		}
	}
}

// TestStoreHeadersAreCatalogueOrdered: each engine's header lists the
// knobs and metrics its samples carry, in catalogue order.
func TestStoreHeadersAreCatalogueOrdered(t *testing.T) {
	src := New()
	for _, s := range codecSamples(t)[:7] {
		src.Store().Add(s)
	}
	type header struct {
		engine         knobs.Engine
		knobs, metrics []string
	}
	d := bincodec.NewDecoder(saved(t, src)[len(storeMagic)+1:])
	got := make([]header, d.Count(3))
	for i := range got {
		got[i] = header{engine: knobs.Engine(d.Str()), knobs: d.Names(), metrics: d.Names()}
	}
	want := []header{
		{engine: knobs.Postgres,
			knobs:   []string{"shared_buffers", "work_mem", "checkpoint_timeout"},
			metrics: []string{"xact_commit", "tup_fetched", "blks_hit"}},
		{engine: knobs.MySQL, knobs: knobs.MySQLCatalog().Names(), metrics: []string{"com_commit", "iops"}},
	}
	if d.Err() != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("headers = %+v (%v), want %+v", got, d.Err(), want)
	}
}

// TestSaveNonFiniteValues: encoding/json rejects NaN and ±Inf, so one
// such value in a stored sample used to fail every later Save, and with
// it every checkpoint. The binary codec keeps them, and −0, bit for
// bit, in the config, the metrics and the objective.
func TestSaveNonFiniteValues(t *testing.T) {
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	src := New()
	for i, v := range odd {
		src.Store().Add(vectorOf(t, mapSample{
			tuner.Sample{WorkloadID: "w", Engine: knobs.Postgres, Objective: v, At: time.Unix(int64(i), 0).UTC()},
			knobs.Config{"work_mem": v, "shared_buffers": 1},
			metrics.Snapshot{"xact_commit": v},
		}))
	}
	dst := storeOf(t, saved(t, src))
	got := dst.Store().Samples("w")
	if len(got) != len(odd) {
		t.Fatalf("restored %d samples, want %d", len(got), len(odd))
	}
	for i, v := range odd {
		want := math.Float64bits(v)
		_, m, err := got[i].Maps()
		if err != nil {
			t.Fatal(err)
		}
		for where, g := range map[string]float64{
			"config": configOf(t, got[i])["work_mem"], "metrics": m["xact_commit"], "objective": got[i].Objective,
		} {
			if math.Float64bits(g) != want {
				t.Errorf("sample %d %s: bits %#x, want %#x", i, where, math.Float64bits(g), want)
			}
		}
	}
}

// TestLoadQuietFailsAtomically: a section that fails to decode anywhere,
// even at its last byte, leaves the store as it was.
func TestLoadQuietFailsAtomically(t *testing.T) {
	src := New()
	for _, s := range codecSamples(t) {
		src.Store().Add(s)
	}
	section := saved(t, src)
	legacy := legacyLines(t, storedSamples(src.Store()))
	// One engine with one knob, one sample whose sparse config bitmap
	// also marks a second, absent name.
	stray := append([]byte(storeMagic), storeVersion, 1)
	stray = bincodec.AppendStrings(bincodec.AppendStrings(bincodec.AppendString(stray, "postgres"), []string{"work_mem"}), nil)
	stray = append(bincodec.AppendString(append(stray, 1), "w"), 1)
	stray = append(stray, 0, flagConfigSparse|flagMetricsNil, 0b11)
	stray = append(stray, make([]byte, 16)...) // the knob value, Objective
	stray = append(stray, 0, 0, 0)             // Window, At
	for name, bad := range map[string][]byte{
		"binary cut":     section[:len(section)-1],
		"binary trailer": append(append([]byte(nil), section...), 0),
		"JSON lines":     legacy,
		"version":        append([]byte(storeMagic), 2),
		"stray bit":      stray,
	} {
		r := New()
		r.Store().Add(tuner.Sample{WorkloadID: "kept", Engine: knobs.Postgres})
		if _, err := r.LoadQuiet(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if ws := r.Store().Workloads(); r.Len() != 1 || len(ws) != 1 || ws[0] != "kept" {
			t.Errorf("%s: a failed load changed the store to %d samples in %v", name, r.Len(), ws)
		}
	}
}

// FuzzLoadStore: for any bytes, LoadQuiet either fails and leaves the
// store unchanged, or loads every sample it reports; it never panics.
func FuzzLoadStore(f *testing.F) {
	src := New()
	for _, s := range codecSamples(f) {
		src.Store().Add(s)
	}
	f.Add(saved(f, src))
	f.Add(legacyLines(f, storedSamples(src.Store())))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := New()
		r.Store().Add(tuner.Sample{WorkloadID: "kept", Engine: knobs.Postgres, Objective: 1})
		before := storedSamples(r.Store())
		n, err := r.LoadQuiet(data)
		if err != nil {
			if after := storedSamples(r.Store()); !reflect.DeepEqual(after, before) {
				t.Fatalf("failed load (%v) changed the store", err)
			}
			return
		}
		if r.Len() != len(before)+n {
			t.Fatalf("loaded %d samples, store grew by %d", n, r.Len()-len(before))
		}
	})
}

// oneSampleSection is a store section of one engine with the given
// headers and one sample that carries neither vector.
func oneSampleSection(engine string, knobNames, metricNames []string) []byte {
	b := append([]byte(storeMagic), storeVersion, 1)
	b = bincodec.AppendStrings(bincodec.AppendStrings(bincodec.AppendString(b, engine), knobNames), metricNames)
	b = append(bincodec.AppendString(append(b, 1), "w"), 1)
	b = append(b, 0, flagConfigNil|flagMetricsNil)
	b = append(b, make([]byte, 8)...) // Objective
	return append(b, 0, 0, 0)         // Window, At
}

// TestLoadRejectsNamesOutsideTheCatalogue: a header naming a knob or
// metric outside its engine's catalogue, naming one twice or out of
// catalogue order, or an engine without catalogues fails, naming it;
// and Save refuses a vector it could not name.
func TestLoadRejectsNamesOutsideTheCatalogue(t *testing.T) {
	if _, err := New().LoadQuiet(oneSampleSection("postgres", []string{"shared_buffers", "work_mem"}, []string{"xact_commit"})); err != nil {
		t.Fatalf("a valid section fails: %v", err)
	}
	for _, tc := range []struct {
		name          string
		engine        string
		knobs, metric []string
	}{
		{"not_a_knob", "postgres", []string{"work_mem", "not_a_knob"}, nil},
		{"com_commit", "postgres", nil, []string{"com_commit"}},
		{"work_mem", "mysql", []string{"work_mem"}, nil},
		{"oracle", "oracle", nil, nil},
		{"work_mem", "postgres", []string{"work_mem", "work_mem"}, nil},
		{"shared_buffers", "postgres", []string{"work_mem", "shared_buffers"}, nil},
	} {
		r := New()
		_, err := r.LoadQuiet(oneSampleSection(tc.engine, tc.knobs, tc.metric))
		if err == nil || !strings.Contains(err.Error(), tc.name) {
			t.Errorf("%s %v %v: err = %v, want one naming %s", tc.engine, tc.knobs, tc.metric, err, tc.name)
		}
		if r.Len() != 0 {
			t.Errorf("%s: a failed load stored %d samples", tc.name, r.Len())
		}
	}
	r := New()
	r.Store().Add(tuner.Sample{WorkloadID: "w", Engine: "oracle", Config: knobs.Vector{Vals: []float64{1}, Set: 1}})
	if _, err := r.Save(); err == nil || !strings.Contains(err.Error(), "oracle") {
		t.Fatalf("Save of a vector without a catalogue: err = %v", err)
	}
}

// TestEncodeStoreRejectsAStoreThatGrew: encodeStore visits the samples
// twice, so a sample added between the visits, of a known engine or a
// new one, fails the encode rather than writing a section whose counts
// do not match its samples. However many visits it makes, a sample
// that appears at any one visit and not at the others fails it too.
func TestEncodeStoreRejectsAStoreThatGrew(t *testing.T) {
	samples := codecSamples(t)
	for _, extra := range []tuner.Sample{samples[1], {WorkloadID: "w", Engine: "oracle"}} {
		visits := 0
		_, err := encodeStore(func(fn func(*tuner.Sample)) {
			visits++
			fn(&samples[0])
			if visits == 2 {
				fn(&extra)
			}
		})
		if err == nil {
			t.Errorf("a store that grew by a %s sample between the visits encoded", extra.Engine)
		}
	}

	visits := 0
	if _, err := encodeStore(func(fn func(*tuner.Sample)) {
		visits++
		fn(&samples[0])
	}); err != nil {
		t.Fatal(err)
	}
	if visits < 2 {
		t.Fatalf("encodeStore visited the samples %d time(s), want a plan and a write", visits)
	}
	for at := 1; at <= visits; at++ {
		for _, extra := range []tuner.Sample{samples[1], {WorkloadID: "w", Engine: "oracle"}} {
			visit := 0
			_, err := encodeStore(func(fn func(*tuner.Sample)) {
				visit++
				fn(&samples[0])
				if visit == at {
					fn(&extra)
				}
			})
			if err == nil {
				t.Errorf("a %s sample seen only at visit %d of %d encoded", extra.Engine, at, visits)
			}
		}
	}
}

// randomMetrics draws a metric snapshot over the Postgres catalogue:
// each metric absent, +0, −0, NaN, ±Inf or an ordinary value, with some
// draws all absent or all +0.
func randomMetrics(rng *rand.Rand) metrics.Snapshot {
	names := metrics.PostgresCatalog().Names()
	odd := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
	m := metrics.Snapshot{}
	mode := rng.Intn(8)
	for _, n := range names {
		switch {
		case mode == 0: // no metric present
		case mode == 1:
			m[n] = 0
		case rng.Intn(4) == 0: // absent
		case rng.Intn(2) == 0:
			m[n] = odd[rng.Intn(len(odd))]
		default:
			m[n] = rng.NormFloat64() * 1e6
		}
	}
	return m
}

// TestStoreCodecPackedVectors: a metric vector keeps only its nonzero
// values, yet the store section carries every present metric as the
// map encoder wrote it, and a restored vector is the packed vector it
// was, bit for bit.
func TestStoreCodecPackedVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var maps []mapSample
	src := New()
	for i := 0; i < 200; i++ {
		m := mapSample{Sample: tuner.Sample{WorkloadID: "w", Engine: knobs.Postgres, Objective: float64(i)}, metrics: randomMetrics(rng)}
		maps = append(maps, m)
		src.Store().Add(vectorOf(t, m))
	}
	section := saved(t, src)
	if want := mapEncodeStore(maps); !bytes.Equal(section, want) {
		t.Fatal("the section of packed vectors differs from the map encoder's")
	}
	got, want := storeOf(t, section).Store().Samples("w"), src.Store().Samples("w")
	for i := range want {
		g, w := got[i].Metrics, want[i].Metrics
		same := g.Set == w.Set && g.NZ == w.NZ && len(g.Vals) == len(w.Vals) && (g.Vals == nil) == (w.Vals == nil)
		for j := 0; same && j < len(w.Vals); j++ {
			same = math.Float64bits(g.Vals[j]) == math.Float64bits(w.Vals[j])
		}
		if !same {
			t.Fatalf("sample %d restored metrics %+v, want %+v", i, g, w)
		}
	}
}
