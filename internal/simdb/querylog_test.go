package simdb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
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

// recorder hands out its generator's statements and keeps the text of
// each, in order.
type recorder struct {
	workload.Generator
	texts *[]string
}

func (r recorder) Sample(rng *rand.Rand) workload.Query {
	q := r.Generator.Sample(rng)
	*r.texts = append(*r.texts, q.Text())
	return q
}

// withSlotSQL rewrites st, the state of a master whose log received
// texts in order from its first slot on, into the format snapshots had
// while the log kept every slot's SQL text: per-slot SQL, no class
// table and no slot count. keepIdx keeps the template table and index
// the later of those snapshots also carried.
func withSlotSQL(st EngineState, texts []string, keepIdx bool) EngineState {
	sqls := make([]string, st.QueryLogSlots)
	for k, text := range texts {
		sqls[k%len(sqls)] = text
	}
	st.QueryLog, st.QueryLogSlots, st.QueryLogClasses = sqls, 0, nil
	if !keepIdx {
		st.QueryLogTemplates, st.QueryLogTemplateIdx = nil, nil
	}
	return st
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
// entry's TemplateID and Class are exactly TemplateOf of the executed
// statement's text, whichever generator produced the statement.
func TestQueryLogTemplateIDsMatchSQL(t *testing.T) {
	for _, eng := range []knobs.Engine{knobs.Postgres, knobs.MySQL} {
		e, err := NewEngine(Options{Engine: eng, Resources: m4Large(), DBSizeBytes: 4 * workload.GiB, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for _, gen := range logContractGenerators(t) {
			var texts []string
			if _, err := e.RunWindow(recorder{gen, &texts}, time.Minute); err != nil {
				t.Fatal(err)
			}
			log := e.QueryLog(windowSampleCap)
			if len(log) != windowSampleCap || len(texts) != windowSampleCap {
				t.Fatalf("%s/%s: window sampled %d statements and logged %d entries, want %d", eng, gen.Name(), len(texts), len(log), windowSampleCap)
			}
			for i, le := range log {
				if want := sqlparse.TemplateOf(texts[i]); le != (LogEntry{TemplateID: want.ID, Class: want.Class}) {
					t.Fatalf("%s/%s: entry %+v for %q, TemplateOf gives %+v", eng, gen.Name(), le, texts[i], want)
				}
			}
		}
	}
}

// TestQueryLogSurvivesRestore checks every restore path reproduces the
// log exactly, for a wrapped ring and for a partly filled one: a state
// in memory and through JSON, and JSON states in the two formats that
// kept every slot's SQL text, with and without the template table and
// index (each filled slot is then templated on restore). Every one
// re-checkpoints to the same template table, class table and index.
func TestQueryLogSurvivesRestore(t *testing.T) {
	for _, logSize := range []int{500, 4096} {
		t.Run(fmt.Sprint(logSize), func(t *testing.T) {
			opts := Options{Engine: knobs.Postgres, Resources: m4Large(), DBSizeBytes: 4 * workload.GiB, Seed: 3, QueryLogSize: logSize}
			src, err := NewEngine(opts)
			if err != nil {
				t.Fatal(err)
			}
			var texts []string
			for _, gen := range logContractGenerators(t) {
				if _, err := src.RunWindow(recorder{gen, &texts}, time.Minute); err != nil {
					t.Fatal(err)
				}
			}
			want := src.QueryLog(logSize)
			st := src.CheckpointState()
			if st.QueryLogTemplateIdx == nil || st.QueryLogClasses == nil || st.QueryLog != nil || st.QueryLogSlots != logSize {
				t.Fatal("checkpoint state does not carry the template-indexed log alone")
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

			for variant, vst := range map[string]EngineState{
				"today's format":                   st,
				"slot SQL with the template index": withSlotSQL(st, texts, true),
				"slot SQL alone":                   withSlotSQL(st, texts, false),
			} {
				raw, err := json.Marshal(vst)
				if err != nil {
					t.Fatal(err)
				}
				var decoded EngineState
				if err := json.Unmarshal(raw, &decoded); err != nil {
					t.Fatal(err)
				}
				dst := restoreInto(decoded)
				if got := dst.QueryLog(logSize); !reflect.DeepEqual(got, want) {
					t.Fatalf("JSON restore of %s changed the query log", variant)
				}
				if again := dst.CheckpointState(); again.QueryLog != nil || again.QueryLogSlots != st.QueryLogSlots ||
					!reflect.DeepEqual(again.QueryLogTemplateIdx, st.QueryLogTemplateIdx) ||
					!reflect.DeepEqual(again.QueryLogTemplates, st.QueryLogTemplates) ||
					!reflect.DeepEqual(again.QueryLogClasses, st.QueryLogClasses) {
					t.Fatalf("JSON restore of %s re-checkpoints a different log", variant)
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

// TestRestoreRejectsBadQueryLogClasses: a class byte that names no
// query class, or a class table whose length differs from the template
// table's, is corrupt. The error names the problem and the engine is
// left untouched.
func TestRestoreRejectsBadQueryLogClasses(t *testing.T) {
	e := newPG(t, m4Large(), 4*workload.GiB)
	if _, err := e.RunWindow(workload.NewTPCC(4*workload.GiB, 500), time.Minute); err != nil {
		t.Fatal(err)
	}
	before := e.CheckpointState()

	badClass := before
	badClass.QueryLogClasses = append([]byte(nil), before.QueryLogClasses...)
	badClass.QueryLogClasses[len(badClass.QueryLogClasses)-1] = byte(sqlparse.NumClasses)
	short := before
	short.QueryLogClasses = before.QueryLogClasses[:len(before.QueryLogClasses)-1]
	long := before
	long.QueryLogClasses = append(append([]byte(nil), before.QueryLogClasses...), 0)
	for name, tc := range map[string]struct {
		st   EngineState
		want string
	}{
		"class past the last": {badClass, fmt.Sprintf("has class %d", sqlparse.NumClasses)},
		"short class table":   {short, fmt.Sprintf("class table has %d entries for %d template IDs", len(short.QueryLogClasses), len(before.QueryLogTemplates))},
		"long class table":    {long, fmt.Sprintf("class table has %d entries for %d template IDs", len(long.QueryLogClasses), len(before.QueryLogTemplates))},
	} {
		err := e.RestoreCheckpointState(tc.st)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: want an error containing %q, got %v", name, tc.want, err)
		}
		if got := e.CheckpointState(); !reflect.DeepEqual(got, before) {
			t.Fatalf("%s: rejected restore changed the engine", name)
		}
	}
}

// TestQueryLogPastUint16Templates: a log holding more distinct template
// IDs than a uint16 indexes checkpoints a 4-byte index and restores
// exactly.
func TestQueryLogPastUint16Templates(t *testing.T) {
	const size = 1<<16 + 2
	opts := Options{Engine: knobs.Postgres, Resources: m4Large(), DBSizeBytes: workload.GiB, Seed: 1, QueryLogSize: size}
	src, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < size; i++ {
		src.queryLog.add(LogEntry{TemplateID: fmt.Sprintf("t%d", i), Class: sqlparse.Class(i % sqlparse.NumClasses)})
	}
	st := src.CheckpointState()
	if len(st.QueryLogTemplates) != size || len(st.QueryLogTemplateIdx) != 4*size {
		t.Fatalf("%d template IDs indexed by %d bytes, want %d IDs by %d", len(st.QueryLogTemplates), len(st.QueryLogTemplateIdx), size, 4*size)
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

// legacyProfilesJSON rewrites a state's JSON profiles into the shape
// snapshots had when profiles held whole statements (SQL and template
// beside the class and resource profile).
func legacyProfilesJSON(t *testing.T, st EngineState) EngineState {
	t.Helper()
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	var profiles map[string]map[string]any
	if err := json.Unmarshal(fields["profiles"], &profiles); err != nil {
		t.Fatal(err)
	}
	for id, p := range profiles {
		p["SQL"] = "SELECT * FROM t WHERE id = 1"
		p["Template"] = map[string]any{"ID": id, "Text": "select * from t where id = ?", "Class": p["Class"]}
	}
	if fields["profiles"], err = json.Marshal(profiles); err != nil {
		t.Fatal(err)
	}
	if raw, err = json.Marshal(fields); err != nil {
		t.Fatal(err)
	}
	var out EngineState
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// withoutLog blanks the query-log fields, whose ring layout may differ
// between engines that hold the same newest entries.
func withoutLog(st EngineState) EngineState {
	st.QueryLog, st.QueryLogSlots, st.QueryLogNext, st.QueryLogFull = nil, 0, 0, false
	st.QueryLogTemplates, st.QueryLogClasses, st.QueryLogTemplateIdx = nil, nil, nil
	return st
}

// TestRestoreLegacyEngineState: a snapshot written when every engine
// kept a 4,096-slot log of SQL text, and replicas kept a log and
// profiles, restores into today's replica set. The master keeps the
// newest DefaultQueryLogSize entries in order, with the template IDs
// and classes of their text, and re-checkpoints them in today's format;
// the replica drops its log and profiles; and further windows give the
// stats and state of a replica set that ran today's code from the start.
func TestRestoreLegacyEngineState(t *testing.T) {
	opts := Options{Engine: knobs.Postgres, Resources: m4Large(), DBSizeBytes: 4 * workload.GiB, Seed: 11}
	gen := workload.NewTPCC(4*workload.GiB, 500)
	// 4 windows fill 768 of the 4,096 slots; 25 wrap the ring.
	for _, windows := range []int{4, 25} {
		t.Run(fmt.Sprint(windows), func(t *testing.T) {
			legacy := opts
			legacy.QueryLogSize = 4096
			oldMaster, err := NewEngine(legacy)
			if err != nil {
				t.Fatal(err)
			}
			legacy.Seed = opts.Seed + 1 // NewReplicaSet's seed for slave 0
			oldSlave, err := NewEngine(legacy)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewReplicaSet(opts, 1)
			if err != nil {
				t.Fatal(err)
			}
			var masterTexts, slaveTexts []string
			for i := 0; i < windows; i++ {
				for _, run := range []struct {
					e   *Engine
					gen workload.Generator
				}{
					{oldMaster, recorder{gen, &masterTexts}}, {oldSlave, recorder{gen, &slaveTexts}},
					{ref.Master(), gen}, {ref.Slaves()[0], gen},
				} {
					if _, err := run.e.RunWindow(run.gen, time.Minute); err != nil {
						t.Fatal(err)
					}
				}
			}
			masterSt := withSlotSQL(oldMaster.CheckpointState(), masterTexts, true)
			slaveSt := withSlotSQL(oldSlave.CheckpointState(), slaveTexts, true)
			if len(masterSt.QueryLog) != 4096 || len(slaveSt.QueryLog) != 4096 || len(slaveSt.Profiles) == 0 {
				t.Fatal("the legacy states do not carry 4,096-slot logs and replica profiles")
			}

			rs, err := NewReplicaSet(opts, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := rs.Master().RestoreCheckpointState(legacyProfilesJSON(t, masterSt)); err != nil {
				t.Fatal(err)
			}
			if err := rs.Slaves()[0].RestoreCheckpointState(legacyProfilesJSON(t, slaveSt)); err != nil {
				t.Fatal(err)
			}
			master, slave := rs.Master(), rs.Slaves()[0]
			want := oldMaster.QueryLog(DefaultQueryLogSize)
			if got := master.QueryLog(DefaultQueryLogSize); len(got) != DefaultQueryLogSize || !reflect.DeepEqual(got, want) {
				t.Fatalf("restored master log differs from the legacy master's newest %d entries", DefaultQueryLogSize)
			}
			again := master.CheckpointState()
			if again.QueryLog != nil || again.QueryLogSlots != DefaultQueryLogSize || len(again.QueryLogClasses) != len(again.QueryLogTemplates) {
				t.Fatal("restored master does not re-checkpoint its log in today's format")
			}
			if st := slave.CheckpointState(); st.QueryLogSlots != 0 || len(st.QueryLog) != 0 || len(st.Profiles) != 0 {
				t.Fatalf("restored replica carries %d log slots and %d profiles", st.QueryLogSlots, len(st.Profiles))
			}

			for i := 0; i < 6; i++ {
				for j, pair := range [][2]*Engine{{master, ref.Master()}, {slave, ref.Slaves()[0]}} {
					got, err := pair[0].RunWindow(gen, time.Minute)
					if err != nil {
						t.Fatal(err)
					}
					wantSt, err := pair[1].RunWindow(gen, time.Minute)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, wantSt) {
						t.Fatalf("window %d node %d: stats diverged after the legacy restore", i, j)
					}
				}
				if got, want := master.QueryLog(DefaultQueryLogSize), ref.Master().QueryLog(DefaultQueryLogSize); !reflect.DeepEqual(got, want) {
					t.Fatalf("window %d: master log diverged after the legacy restore", i)
				}
			}
			for j, pair := range [][2]*Engine{{master, ref.Master()}, {slave, ref.Slaves()[0]}} {
				if got, want := withoutLog(pair[0].CheckpointState()), withoutLog(pair[1].CheckpointState()); !reflect.DeepEqual(got, want) {
					t.Fatalf("node %d: state diverged after the legacy restore", j)
				}
			}
		})
	}
}

// TestRestoreRejectsShortQueryLog: a snapshot log with fewer slots than
// the engine's ring, or a cursor outside its slots, is corrupt. The
// error names the problem and the engine is left untouched.
func TestRestoreRejectsShortQueryLog(t *testing.T) {
	e := newPG(t, m4Large(), 4*workload.GiB)
	for i := 0; i < 3; i++ {
		if _, err := e.RunWindow(workload.NewTPCC(4*workload.GiB, 500), time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	before := e.CheckpointState()

	short := before
	short.QueryLogSlots = DefaultQueryLogSize - 1
	short.QueryLogTemplateIdx = before.QueryLogTemplateIdx[:2*(DefaultQueryLogSize-1)]
	cursor := before
	cursor.QueryLogNext = before.QueryLogSlots
	for name, tc := range map[string]struct {
		st   EngineState
		want string
	}{
		"short":  {short, "query log has 511 slots"},
		"cursor": {cursor, "query log cursor 512"},
	} {
		err := e.RestoreCheckpointState(tc.st)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s log: want an error containing %q, got %v", name, tc.want, err)
		}
		if got := e.CheckpointState(); !reflect.DeepEqual(got, before) {
			t.Fatalf("%s log: rejected restore changed the engine", name)
		}
	}
}
