package simdb

import (
	"bytes"
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
func (g handBuilt) SampleInto(rng *rand.Rand, q *workload.Query) { *q = g.Sample(rng) }

// recorder hands out its generator's statements and keeps the text of
// each, in order.
type recorder struct {
	workload.Generator
	texts *[]string
}

func (r recorder) SampleInto(rng *rand.Rand, q *workload.Query) {
	r.Generator.SampleInto(rng, q)
	*r.texts = append(*r.texts, q.Text())
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

// TestQueryLogSurvivesRestore checks a restore reproduces the log
// exactly, for a wrapped ring and for a partly filled one, and that the
// restored engine re-checkpoints the same template table, class table
// and index. The checkpoint package's codec tests cover the same state
// through its binary section.
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
			if st.QueryLogTemplateIdx == nil || st.QueryLogClasses == nil || st.QueryLogSlots != logSize {
				t.Fatal("checkpoint state does not carry the template-indexed log")
			}
			dst, err := NewEngine(opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := dst.RestoreCheckpointState(st); err != nil {
				t.Fatal(err)
			}
			if got := dst.QueryLog(logSize); !reflect.DeepEqual(got, want) {
				t.Fatal("restore changed the query log")
			}
			if again := dst.CheckpointState(); again.QueryLogSlots != st.QueryLogSlots ||
				!reflect.DeepEqual(again.QueryLogTemplateIdx, st.QueryLogTemplateIdx) ||
				!reflect.DeepEqual(again.QueryLogTemplates, st.QueryLogTemplates) ||
				!reflect.DeepEqual(again.QueryLogClasses, st.QueryLogClasses) {
				t.Fatal("a restored engine re-checkpoints a different log")
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

// TestRestoreRejectsUnknownKnob: a restored config or staged restart
// config naming a knob outside the engine's catalogue is corrupt (the
// engine reads its config by catalogue position), and the engine is
// left untouched.
func TestRestoreRejectsUnknownKnob(t *testing.T) {
	e := newPG(t, m4Large(), 4*workload.GiB)
	before := e.CheckpointState()
	cfg, staged := before, before
	cfg.Cfg = before.Cfg.Clone()
	cfg.Cfg["innodb_io_capacity"] = 200
	staged.PendingRestart = knobs.Config{"not_a_knob": 1}
	for name, tc := range map[string]struct {
		st   EngineState
		want string
	}{"config": {cfg, `"innodb_io_capacity"`}, "staged": {staged, `"not_a_knob"`}} {
		err := e.RestoreCheckpointState(tc.st)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: want an error naming %s, got %v", name, tc.want, err)
		}
		if got := e.CheckpointState(); !reflect.DeepEqual(got, before) {
			t.Fatalf("%s: rejected restore changed the engine", name)
		}
	}
}
