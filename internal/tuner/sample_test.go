package tuner

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"autodbaas/internal/knobs"
	"autodbaas/internal/metrics"
)

// mapSample is Sample as it was with map-typed fields: its JSON is the
// wire form MarshalJSON must keep byte for byte.
type mapSample struct {
	WorkloadID string           `json:"workload_id"`
	Engine     knobs.Engine     `json:"engine"`
	Config     knobs.Config     `json:"config"`
	Metrics    metrics.Snapshot `json:"metrics"`
	Objective  float64          `json:"objective"`
	Quality    bool             `json:"quality"`
	Window     time.Duration    `json:"window"`
	At         time.Time        `json:"at"`
}

// fullMaps returns every knob and metric of engine e, at distinct values.
func fullMaps(e knobs.Engine) (knobs.Config, metrics.Snapshot) {
	kc, _ := knobs.CatalogFor(e)
	mc, _ := metrics.CatalogFor(string(e))
	cfg, m := kc.DefaultConfig(), metrics.Snapshot{}
	for i, n := range mc.Names() {
		m[n] = float64(i*i) - 7.25
	}
	return cfg, m
}

// TestSampleJSONMatchesMapForm: a sample marshals to the bytes its map
// form gave — nil, empty, sparse and full maps, both engines, a zoned
// time — and unmarshals back to the same vectors.
func TestSampleJSONMatchesMapForm(t *testing.T) {
	at := time.Date(2021, 3, 23, 4, 5, 6, 789, time.FixedZone("IST", 5*3600+1800))
	pgCfg, pgMetrics := fullMaps(knobs.Postgres)
	myCfg, myMetrics := fullMaps(knobs.MySQL)
	for _, want := range []mapSample{
		{WorkloadID: "nil", Engine: knobs.Postgres},
		{WorkloadID: "empty", Engine: knobs.MySQL, Config: knobs.Config{}, Metrics: metrics.Snapshot{}, Window: time.Minute},
		{WorkloadID: "sparse", Engine: knobs.Postgres,
			Config:  knobs.Config{"work_mem": 4 << 20, "cpu_tuple_cost": 0.02},
			Metrics: metrics.Snapshot{"p99_latency_ms": -0.5, "xact_commit": 0}, Objective: 812.25, Quality: true, At: at},
		{WorkloadID: "full-pg", Engine: knobs.Postgres, Config: pgCfg, Metrics: pgMetrics, Objective: 1, At: at.UTC()},
		{WorkloadID: "full-mysql", Engine: knobs.MySQL, Config: myCfg, Metrics: myMetrics, Objective: 2},
		{WorkloadID: "config-only", Engine: knobs.MySQL, Config: knobs.Config{"sort_buffer_size": 1 << 18}},
	} {
		ref, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		s := Sample{WorkloadID: want.WorkloadID, Engine: want.Engine, Objective: want.Objective,
			Quality: want.Quality, Window: want.Window, At: want.At}
		if err := s.SetMaps(want.Config, want.Metrics); err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("%s: MarshalJSON\\n  got  %s\\n  want %s", want.WorkloadID, got, ref)
		}
		var back Sample
		if err := json.Unmarshal(ref, &back); err != nil {
			t.Fatal(err)
		}
		again, err := json.Marshal(back)
		if err != nil || !bytes.Equal(again, ref) {
			t.Fatalf("%s: round trip gives %s (%v), want %s", want.WorkloadID, again, err, ref)
		}
		if (back.Config.Vals == nil) != (want.Config == nil) || (back.Metrics.Vals == nil) != (want.Metrics == nil) {
			t.Fatalf("%s: nil maps not kept: %+v", want.WorkloadID, back)
		}
	}
}

// TestSampleJSONRejectsNamesOutsideTheCatalogue: a knob or metric its
// engine's catalogue lacks fails and the error names it, as does an
// engine without catalogues, and a failed decode leaves the sample as
// it was.
func TestSampleJSONRejectsNamesOutsideTheCatalogue(t *testing.T) {
	for _, tc := range []struct{ body, names string }{
		{`{"engine":"postgres","config":{"work_mem":1,"not_a_knob":2}}`, "not_a_knob"},
		{`{"engine":"postgres","metrics":{"xact_commit":1,"com_commit":2}}`, "com_commit"},
		{`{"engine":"mysql","config":{"work_mem":1}}`, "work_mem"},
		{`{"engine":"oracle"}`, "oracle"},
		{`{"workload_id":"w"}`, `""`},
	} {
		s := Sample{WorkloadID: "kept"}
		err := json.Unmarshal([]byte(tc.body), &s)
		if err == nil || !strings.Contains(err.Error(), tc.names) {
			t.Errorf("%s: err = %v, want one naming %s", tc.body, err, tc.names)
		}
		if s.WorkloadID != "kept" {
			t.Errorf("%s: a failed decode changed the sample to %+v", tc.body, s)
		}
	}
}

// TestStoredSampleHeap pins what a stored sample costs: after a GC,
// 10,000 agent-shaped Postgres samples (every knob, every metric's
// delta) keep at most 640 B of heap each, the Sample in the store's
// slice included. As two maps they kept about 2.9 KB each.
func TestStoredSampleHeap(t *testing.T) {
	const n = 10_000
	kc, _ := knobs.CatalogFor(knobs.Postgres)
	mc, _ := metrics.CatalogFor("postgres")
	cfg, after := fullMaps(knobs.Postgres)
	before := metrics.Snapshot{}
	for k, v := range after {
		before[k] = v / 2
	}
	at := time.Date(2021, 3, 23, 0, 0, 0, 0, time.UTC)
	s := NewStore()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		cv, err := kc.FromConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Add(Sample{WorkloadID: "db-1/tpcc", Engine: knobs.Postgres, Config: cv, Metrics: mc.Delta(before, after),
			Objective: float64(i), Quality: i%2 == 0, Window: 5 * time.Minute, At: at.Add(time.Duration(i) * time.Minute)})
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	per := (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / n
	runtime.KeepAlive(s)
	t.Logf("%.0f B of heap per stored sample", per)
	if per > 640 || math.IsNaN(per) {
		t.Fatalf("a stored sample keeps %.0f B of heap, want at most 640", per)
	}
}
