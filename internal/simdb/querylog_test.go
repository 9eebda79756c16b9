package simdb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"autodbaas/internal/knobs"
	"autodbaas/internal/sqlparse"
	"autodbaas/internal/workload"
)

// handBuilt issues queries with no carried Template, the way a test or
// an ad-hoc probe builds them.
type handBuilt struct{}

func (handBuilt) Name() string                  { return "hand-built" }
func (handBuilt) DBSizeBytes() float64          { return 4 * workload.GiB }
func (handBuilt) RequestRate(time.Time) float64 { return 500 }
func (handBuilt) Sample(rng *rand.Rand) workload.Query {
	return workload.Query{
		SQL:     fmt.Sprintf("SELECT * FROM accounts WHERE id = %d", rng.Intn(1000)),
		Class:   sqlparse.ClassSimpleSelect,
		Profile: workload.Profile{ReadBytes: 8192, IndexFriendly: true},
	}
}

// logContractGenerators covers every generator family, a replayed trace
// and a hand-built query without a template.
func logContractGenerators(t *testing.T) []workload.Generator {
	t.Helper()
	var buf bytes.Buffer
	if err := workload.RecordTrace(&buf, workload.NewTPCC(4*workload.GiB, 500), rand.New(rand.NewSource(5)), 300); err != nil {
		t.Fatal(err)
	}
	trace, err := workload.LoadTrace(&buf, "replay", 4*workload.GiB, 500)
	if err != nil {
		t.Fatal(err)
	}
	return []workload.Generator{
		workload.NewTPCC(4*workload.GiB, 500),
		workload.NewYCSB(4*workload.GiB, 500),
		workload.NewWikipedia(4*workload.GiB, 500),
		workload.NewTwitter(4*workload.GiB, 500),
		workload.NewTPCH(4*workload.GiB, 10),
		workload.NewCHBench(4*workload.GiB, 500),
		workload.NewProduction(),
		workload.NewAdulteratedTPCC(4*workload.GiB, 500, 0.8),
		trace,
		handBuilt{},
	}
}

// TestQueryLogTemplateIDsMatchSQL pins the query log's contract: every
// entry's TemplateID is exactly TemplateOf(SQL).ID, whichever generator
// produced the statement.
func TestQueryLogTemplateIDsMatchSQL(t *testing.T) {
	for _, eng := range []knobs.Engine{knobs.Postgres, knobs.MySQL} {
		e, err := NewEngine(Options{Engine: eng, Resources: m4Large(), DBSizeBytes: 4 * workload.GiB, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for _, gen := range logContractGenerators(t) {
			if _, err := e.RunWindow(gen, time.Minute); err != nil {
				t.Fatal(err)
			}
			log := e.QueryLog(windowSampleCap)
			if len(log) != windowSampleCap {
				t.Fatalf("%s/%s: window logged %d entries, want %d", eng, gen.Name(), len(log), windowSampleCap)
			}
			for _, le := range log {
				if want := sqlparse.TemplateOf(le.SQL).ID; le.TemplateID != want {
					t.Fatalf("%s/%s: entry %q has template %q, TemplateOf gives %q", eng, gen.Name(), le.SQL, le.TemplateID, want)
				}
			}
		}
	}
}

// TestQueryLogSurvivesRestore checks both restore paths reproduce the
// log exactly, for a wrapped ring and for a partly filled one: a state
// carrying the template fields, and a JSON state written without them
// (each slot is then templated on restore).
func TestQueryLogSurvivesRestore(t *testing.T) {
	for _, logSize := range []int{500, 4096} {
		t.Run(fmt.Sprint(logSize), func(t *testing.T) {
			opts := Options{Engine: knobs.Postgres, Resources: m4Large(), DBSizeBytes: 4 * workload.GiB, Seed: 3, QueryLogSize: logSize}
			src, err := NewEngine(opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, gen := range logContractGenerators(t) {
				if _, err := src.RunWindow(gen, time.Minute); err != nil {
					t.Fatal(err)
				}
			}
			want := src.QueryLog(logSize)
			st := src.CheckpointState()
			if st.QueryLogTemplateIdx == nil {
				t.Fatal("checkpoint state carries no template index")
			}

			restoreInto := func(st EngineState) *Engine {
				t.Helper()
				dst, err := NewEngine(opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := dst.RestoreCheckpointState(st); err != nil {
					t.Fatal(err)
				}
				return dst
			}
			if got := restoreInto(st).QueryLog(logSize); !reflect.DeepEqual(got, want) {
				t.Fatal("in-memory restore changed the query log")
			}

			raw, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			var fields map[string]json.RawMessage
			if err := json.Unmarshal(raw, &fields); err != nil {
				t.Fatal(err)
			}
			for _, variant := range []string{"with template fields", "without template fields"} {
				if variant == "without template fields" {
					delete(fields, "query_log_templates")
					delete(fields, "query_log_template_idx")
				}
				raw, err := json.Marshal(fields)
				if err != nil {
					t.Fatal(err)
				}
				var decoded EngineState
				if err := json.Unmarshal(raw, &decoded); err != nil {
					t.Fatal(err)
				}
				dst := restoreInto(decoded)
				if got := dst.QueryLog(logSize); !reflect.DeepEqual(got, want) {
					t.Fatalf("JSON restore %s changed the query log", variant)
				}
				if again := dst.CheckpointState(); !reflect.DeepEqual(again.QueryLogTemplateIdx, st.QueryLogTemplateIdx) ||
					!reflect.DeepEqual(again.QueryLogTemplates, st.QueryLogTemplates) {
					t.Fatalf("JSON restore %s re-checkpoints a different template index", variant)
				}
			}
		})
	}
}

// TestRestoreRejectsBadQueryLogIndex: a template index that is the
// wrong length or points past the table is corrupt, and the engine is
// left untouched.
func TestRestoreRejectsBadQueryLogIndex(t *testing.T) {
	e := newPG(t, m4Large(), 4*workload.GiB)
	if _, err := e.RunWindow(workload.NewTPCC(4*workload.GiB, 500), time.Minute); err != nil {
		t.Fatal(err)
	}
	before := e.QueryLog(100)
	good := e.CheckpointState()

	short := good
	short.QueryLogTemplateIdx = good.QueryLogTemplateIdx[:len(good.QueryLogTemplateIdx)-2]
	past := good
	past.QueryLogTemplateIdx = append([]byte(nil), good.QueryLogTemplateIdx...)
	past.QueryLogTemplateIdx[0], past.QueryLogTemplateIdx[1] = 0xff, 0xff
	for name, st := range map[string]EngineState{"short": short, "past the table": past} {
		if err := e.RestoreCheckpointState(st); err == nil {
			t.Fatalf("%s index accepted", name)
		}
		if got := e.QueryLog(100); !reflect.DeepEqual(got, before) {
			t.Fatalf("%s index: rejected restore changed the log", name)
		}
	}
}

// TestQueryLogPastUint16Templates: a log holding more distinct template
// IDs than a uint16 indexes checkpoints without the index and still
// restores exactly, by templating each slot.
func TestQueryLogPastUint16Templates(t *testing.T) {
	const size = 1<<16 + 2
	opts := Options{Engine: knobs.Postgres, Resources: m4Large(), DBSizeBytes: workload.GiB, Seed: 1, QueryLogSize: size}
	src, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < size; i++ {
		sql := fmt.Sprintf("SELECT c%d FROM t", i)
		src.queryLog.add(LogEntry{SQL: sql, TemplateID: sqlparse.TemplateOf(sql).ID})
	}
	st := src.CheckpointState()
	if st.QueryLogTemplateIdx != nil || st.QueryLogTemplates != nil {
		t.Fatal("template index written for more IDs than a uint16 indexes")
	}
	dst, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.RestoreCheckpointState(st); err != nil {
		t.Fatal(err)
	}
	if got, want := dst.QueryLog(size), src.QueryLog(size); !reflect.DeepEqual(got, want) {
		t.Fatal("restore changed the query log")
	}
}
