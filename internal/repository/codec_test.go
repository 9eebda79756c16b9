package repository

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"autodbaas/internal/knobs"
	"autodbaas/internal/tuner"
)

// legacyLines writes samples as JSON lines, the store section Save
// wrote before the binary codec.
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

// codecSamples covers every shape the codec distinguishes: two
// catalogued engines and one without a catalogue, keys outside the
// catalogue, nil, empty, dense and sparse maps, zoned and zero times,
// and samples of one workload spread over engines.
func codecSamples() []tuner.Sample {
	at := time.Date(2021, 3, 23, 4, 5, 6, 789, time.UTC)
	return []tuner.Sample{
		{WorkloadID: "tpcc", Engine: knobs.Postgres,
			Config:    knobs.Config{"work_mem": 4 << 20, "shared_buffers": 1 << 30, "not_a_knob": 3},
			Metrics:   map[string]float64{"xact_commit": 120, "blks_hit": 7.5},
			Objective: 812.25, Quality: true, Window: 5 * time.Minute, At: at},
		{WorkloadID: "tpcc", Engine: knobs.Postgres,
			Config:    knobs.Config{"work_mem": 8 << 20},
			Metrics:   map[string]float64{},
			Objective: -1, Window: -time.Second, At: at.In(time.FixedZone("IST", 5*3600+1800))},
		{WorkloadID: "tpcc", Engine: knobs.MySQL,
			Config: knobs.Config{"sort_buffer_size": 1 << 18}, Objective: 3},
		{WorkloadID: "ycsb", Engine: knobs.Postgres,
			Config: knobs.Config{}, Metrics: map[string]float64{"blks_hit": 0},
			At: at.In(time.FixedZone("", -7*3600))},
		{WorkloadID: "ycsb", Engine: "oracle",
			Config:  knobs.Config{"sga_target": 2, "pga_aggregate_target": 1},
			Metrics: map[string]float64{"z": 1, "a": 2}, At: at.Add(time.Hour)},
		{WorkloadID: "ycsb", Engine: knobs.Postgres, At: at.In(time.Local)},
		// As many keys as the engine's first sample, but not the same
		// ones: the header must come from every sample's keys.
		{WorkloadID: "ycsb", Engine: knobs.Postgres,
			Config:  knobs.Config{"checkpoint_timeout": 300, "shared_buffers": 1 << 29, "work_mem": 1 << 20},
			Metrics: map[string]float64{"blks_hit": 2, "tup_fetched": 3, "xact_commit": 1}},
	}
}

func storeOf(t testing.TB, section []byte) *Repository {
	t.Helper()
	r := New()
	if _, err := r.LoadQuiet(bytes.NewReader(section)); err != nil {
		t.Fatal(err)
	}
	return r
}

func saved(t testing.TB, r *Repository) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStoreCodecMatchesLegacy: the binary section restores exactly the
// store the JSON lines restore — maps nil or empty as they were, and
// every time in the location encoding/json gives it — and a restored
// store re-encodes to the same bytes.
func TestStoreCodecMatchesLegacy(t *testing.T) {
	src := New()
	for _, s := range codecSamples() {
		src.Store().Add(s)
	}
	section := saved(t, src)
	if !bytes.HasPrefix(section, []byte(storeMagic)) {
		t.Fatalf("Save wrote no binary magic: %q", section[:8])
	}
	binary := storeOf(t, section)
	legacy := storeOf(t, legacyLines(t, src.Store().All()))
	if !reflect.DeepEqual(binary.Store(), legacy.Store()) {
		t.Fatalf("binary restore differs from the legacy restore\n  binary: %+v\n  legacy: %+v", binary.Store().All(), legacy.Store().All())
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
// keys its samples carry, in catalogue order, then keys outside the
// catalogue, sorted.
func TestStoreHeadersAreCatalogueOrdered(t *testing.T) {
	src := New()
	for _, s := range codecSamples() {
		src.Store().Add(s)
	}
	d := &decoder{b: saved(t, src)[len(storeMagic)+1:]}
	got := make([]engineHeader, d.count(3))
	for i := range got {
		got[i] = engineHeader{engine: knobs.Engine(d.str()), knobs: d.names(), metrics: d.names()}
	}
	want := []engineHeader{
		{engine: knobs.Postgres,
			knobs:   []string{"shared_buffers", "work_mem", "checkpoint_timeout", "not_a_knob"},
			metrics: []string{"xact_commit", "tup_fetched", "blks_hit"}},
		{engine: knobs.MySQL, knobs: []string{"sort_buffer_size"}, metrics: []string{}},
		{engine: "oracle", knobs: []string{"pga_aggregate_target", "sga_target"}, metrics: []string{"a", "z"}},
	}
	if d.err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("headers = %+v (%v), want %+v", got, d.err, want)
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
		src.Store().Add(tuner.Sample{
			WorkloadID: "w", Engine: knobs.Postgres,
			Config:    knobs.Config{"work_mem": v, "shared_buffers": 1},
			Metrics:   map[string]float64{"xact_commit": v},
			Objective: v, At: time.Unix(int64(i), 0).UTC(),
		})
	}
	dst := storeOf(t, saved(t, src))
	got := dst.Store().Samples("w")
	if len(got) != len(odd) {
		t.Fatalf("restored %d samples, want %d", len(got), len(odd))
	}
	for i, v := range odd {
		want := math.Float64bits(v)
		for where, g := range map[string]float64{
			"config": got[i].Config["work_mem"], "metrics": got[i].Metrics["xact_commit"], "objective": got[i].Objective,
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
	for _, s := range codecSamples() {
		src.Store().Add(s)
	}
	section := saved(t, src)
	legacy := legacyLines(t, src.Store().All())
	// One engine with one knob, one sample whose sparse config bitmap
	// also marks a second, absent name.
	stray := append([]byte(storeMagic), storeVersion, 1)
	stray = appendStrings(appendStrings(appendString(stray, "postgres"), []string{"work_mem"}), nil)
	stray = append(appendString(append(stray, 1), "w"), 1)
	stray = append(stray, 0, flagConfigSparse|flagMetricsNil, 0b11)
	stray = append(stray, make([]byte, 16)...) // the knob value, Objective
	stray = append(stray, 0, 0, 0)             // Window, At
	for name, bad := range map[string][]byte{
		"binary cut":     section[:len(section)-1],
		"binary trailer": append(append([]byte(nil), section...), 0),
		"legacy cut":     legacy[:len(legacy)-2],
		"version":        append([]byte(storeMagic), 2),
		"stray bit":      stray,
	} {
		r := New()
		r.Store().Add(tuner.Sample{WorkloadID: "kept", Engine: knobs.Postgres})
		if _, err := r.LoadQuiet(bytes.NewReader(bad)); err == nil {
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
	for _, s := range codecSamples() {
		src.Store().Add(s)
	}
	f.Add(saved(f, src))
	f.Add(legacyLines(f, src.Store().All()))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := New()
		r.Store().Add(tuner.Sample{WorkloadID: "kept", Engine: knobs.Postgres, Objective: 1})
		before := r.Store().All()
		n, err := r.LoadQuiet(bytes.NewReader(data))
		if err != nil {
			if after := r.Store().All(); !reflect.DeepEqual(after, before) {
				t.Fatalf("failed load (%v) changed the store", err)
			}
			return
		}
		if r.Len() != len(before)+n {
			t.Fatalf("loaded %d samples, store grew by %d", n, r.Len()-len(before))
		}
	})
}
